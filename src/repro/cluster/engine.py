"""The clustered deployment engines: N testbed nodes behind one load balancer.

Every engine tier is a :class:`FleetEngine`.  The base class is the one
front end of a fleet: the shared constructor checks, the single-use
``run`` and the incremental ``step``/``finish`` contract with its guards,
the four boundary mutations (``mutate_*``), the ``fleet_snapshot`` read, the
end-of-run telemetry and ``describe``.  A tier supplies only its tick
advance, its per-node reads and one small apply hook per mutation kind, so
the exact tier below and the numpy tier of :mod:`repro.cluster.fluid`
differ only in how a tick advances.

``ClusterEngine`` is the exact tier, and it is *event-driven*.  Instead of
paying a Python loop over every browser and every node each simulated
second, it advances the fleet from interesting event to interesting event:
browser request arrivals (scheduled on a heap from each browser's think
time), monitoring marks, injector firings, lifecycle transitions (drain
expiry, restart completion) and the uptime crossings a time-based
coordinator announces.  Nodes untouched between events are fast-forwarded in
exact batches, so a 100-node fleet no longer costs 100x per-second work.
Seeded runs produce bit-for-bit the :class:`ClusterOutcome` aggregates,
monitoring samples and sim-channel telemetry of the original
tick-everything loop, which the test suite keeps as its reference
(``tests/cluster/oracle.py``); the per-tick node primitives that loop drives
(``ClusterNode.advance_tick`` / ``end_tick``) stay on the node for it.

The bit-for-bit guarantee rests on the one-second tick: every countdown
resolves to its exact tick with the helpers of :mod:`repro.testbed.timeline`,
and every time accumulator holds whole seconds, so one batched add equals
its per-tick adds.  The batched fast-forward itself (lite begins,
``(footprint, busy)`` segments, deferred OS settlement, fused marks) and the
serving kernel every routed request goes through live in the shared core
:mod:`repro.testbed.events` -- the same core that drives stand-alone
``TestbedSimulation`` runs -- with :class:`ClusterNode` adding only the
fleet lifecycle on top.

The engine redistributes workload automatically at every membership change:

* when a node **crashes mid-request**, the failed request is rerouted to the
  surviving nodes on the spot and the balancer's allocations shift to them;
* when a node **drains or restarts**, it simply stops being an accepting
  candidate, so the routing policy spreads its share over the rest;
* when a node **rejoins**, it re-enters the candidate set with a fresh
  incarnation (and, under aging-aware routing, a clean bill of health).

With no accepting node at all the fleet is in full outage: requests are
dropped, browsers back off for ``dropped_request_penalty_s`` and the outage
seconds are charged to the status aggregator.
"""

from __future__ import annotations

import abc
import functools
import heapq
import math
import random
from bisect import bisect
from typing import Sequence

from repro.cluster.balancer import LoadBalancer
from repro.cluster.coordinator import ClusterRejuvenationCoordinator, NoClusterRejuvenation
from repro.cluster.node import ClusterNode, InjectorFactory, MonitorFactory, NodeState
from repro.cluster.routing import RoutingEpoch, RoutingPolicy
from repro.cluster.status import ClusterOutcome, FleetStatus, NodeOutcome
from repro.core.predictor import AgingPredictor
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.thread_leak import ThreadLeakInjector
from repro.testbed.timeline import first_tick_at_or_after, ticks_until_nonpositive
from repro.testbed.clock import TICK_SECONDS, SimulationClock
from repro.testbed.config import TestbedConfig
from repro.testbed.errors import ServerCrash
from repro.testbed.tpcw.workload import WorkloadGenerator, WorkloadMix
from repro.telemetry import runtime as telemetry_runtime
from repro.telemetry.hub import ENGINE as _ENGINE_CHANNEL, Telemetry

__all__ = ["ClusterEngine", "FleetEngine", "apply_injector_overrides", "leak_rate_overrides"]

#: Seed stride between the nodes of one cluster.
_NODE_SEED_STRIDE = 104729

#: Event kinds of the event-driven scheduler (heap tie-break order matters:
#: transitions apply before marks and injector drives of the same tick).
_TRANSITION, _MARK, _INJECTOR, _DECIDE = 0, 1, 2, 3


def leak_rate_overrides(
    memory_n: int | None = None,
    thread_m: int | None = None,
    thread_t: int | None = None,
) -> dict:
    """Validate a leak-rate mutation and return its override dict.

    Omitted (``None``) rates are left out; ``memory_n`` / ``thread_m`` of 0
    disable the respective injector.  At least one rate must be given.
    """
    overrides: dict = {}
    if memory_n is not None:
        if memory_n < 0:
            raise ValueError("memory_n must be >= 0 (0 disables the memory leak)")
        overrides["memory_n"] = memory_n
    if thread_m is not None:
        if thread_m < 0:
            raise ValueError("thread_m must be >= 0 (0 disables the thread leak)")
        overrides["thread_m"] = thread_m
    if thread_t is not None:
        if thread_t < 1:
            raise ValueError("thread_t must be at least 1")
        overrides["thread_t"] = thread_t
    if not overrides:
        raise ValueError("a leak-rate mutation needs at least one of memory_n/thread_m/thread_t")
    return overrides


def apply_injector_overrides(injectors, overrides: dict) -> None:
    """Apply leak-rate overrides to the paper's injector types, in place.

    Recognised keys: ``memory_n`` (0 disables the memory leak), ``thread_m``
    (0 disables the thread leak) and ``thread_t``.  Unknown injector types are
    left untouched -- a rate mutation only has defined semantics for the
    paper's injectors, and every incarnation (and the reference loop) must
    apply exactly the same calls for the streams to stay aligned.
    """
    for injector in injectors:
        if isinstance(injector, MemoryLeakInjector) and "memory_n" in overrides:
            n = overrides["memory_n"]
            injector.set_rate(None if n == 0 else n)
        elif isinstance(injector, ThreadLeakInjector) and (
            "thread_m" in overrides or "thread_t" in overrides
        ):
            m = overrides.get("thread_m", injector.m)
            if m == 0:
                injector.set_rate(None)
            else:
                injector.set_rate(m, overrides.get("thread_t"))


def _overridden_injectors(factory: InjectorFactory, overrides: dict, seed: int) -> list:
    """``factory(seed)``'s injectors with leak-rate ``overrides`` applied."""
    injectors = list(factory(seed))
    apply_injector_overrides(injectors, overrides)
    return injectors


class FleetEngine(abc.ABC):
    """One runnable fleet of ``num_nodes`` servers; see the module docstring.

    The front end every engine tier shares.  A tier implements the abstract
    hooks below: its own constructor checks and state (``_build``), its tick
    advance, three per-node reads and one apply hook per mutation kind, each
    called only after the front end has validated the call.  ``_start``,
    ``_settle`` and ``_tier_telemetry`` are optional.

    Parameters
    ----------
    num_nodes:
        Fleet size.
    config:
        Testbed configuration shared by every node that has no entry in
        ``node_configs`` (and the source of the workload think time).
    node_configs:
        Optional per-node testbed configurations for heterogeneous fleets
        (mixed heap sizes, thread limits).  Must contain one entry per node.
    total_ebs:
        Fleet-level TPC-W emulated-browser population; the load balancer
        spreads it across the accepting nodes.
    injector_factory:
        Builds the aging-fault injectors of each node incarnation from its
        derived seed; ``None`` runs a healthy fleet.
    routing_policy:
        Load-balancing policy (round-robin when omitted).
    coordinator:
        Fleet rejuvenation coordinator (never rejuvenate when omitted).
    predictor:
        Optional fitted :class:`AgingPredictor`; required for aging-aware
        routing and predictive coordination to see per-node forecasts.
    monitor_factory:
        Optional per-node :data:`~repro.cluster.node.MonitorFactory`
        building lifecycle-managed monitors (drift detection plus
        champion/challenger retraining) instead of the plain per-incarnation
        monitor; mutually exclusive with ``predictor``.
    alarm_threshold_seconds / alarm_consecutive:
        Per-node on-line monitor configuration.
    drain_seconds:
        Out-of-rotation time before a planned restart.
    rejuvenation_downtime_seconds / crash_downtime_seconds:
        Planned versus unplanned restart downtime of a node.
    dropped_request_penalty_s:
        Back-off a browser suffers when the whole fleet is down.
    mix:
        TPC-W traffic mix.
    seed:
        Master seed; the workload stream and every node derive their own
        deterministic seeds from it.
    """

    #: Extra ``run_begin`` data of a tier whose streams are tier-specific.
    _run_tags: dict = {}
    #: Widest fleet that still gets per-node end-of-run gauges.
    _per_node_gauge_cap: float = math.inf
    #: Requests rerouted to a surviving node after a mid-request crash (only
    #: a tier that routes request by request has any).
    requests_rerouted = 0

    def __init__(
        self,
        num_nodes: int = 3,
        config: TestbedConfig | None = None,
        total_ebs: int = 120,
        injector_factory: InjectorFactory | None = None,
        routing_policy: RoutingPolicy | None = None,
        coordinator: ClusterRejuvenationCoordinator | None = None,
        predictor: AgingPredictor | None = None,
        monitor_factory: MonitorFactory | None = None,
        alarm_threshold_seconds: float = 600.0,
        alarm_consecutive: int = 2,
        drain_seconds: float = 30.0,
        rejuvenation_downtime_seconds: float = 120.0,
        crash_downtime_seconds: float = 900.0,
        dropped_request_penalty_s: float = 3.0,
        mix: WorkloadMix = WorkloadMix.SHOPPING,
        seed: int = 0,
        node_configs: Sequence[TestbedConfig] | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if total_ebs < 1:
            raise ValueError("total_ebs must be at least 1")
        if dropped_request_penalty_s <= 0:
            raise ValueError("dropped_request_penalty_s must be positive")
        self.config = config if config is not None else TestbedConfig()
        if node_configs is not None:
            node_configs = list(node_configs)
            if len(node_configs) != num_nodes:
                raise ValueError(f"node_configs must provide one configuration per node ({num_nodes})")
        self.num_nodes = num_nodes
        self.node_configs = node_configs
        self.total_ebs = total_ebs
        self.seed = seed
        self.mix = mix
        self.predictor = predictor
        self.monitor_factory = monitor_factory
        self.alarm_threshold_seconds = float(alarm_threshold_seconds)
        self.alarm_consecutive = int(alarm_consecutive)
        self.drain_seconds = float(drain_seconds)
        self.rejuvenation_downtime_seconds = float(rejuvenation_downtime_seconds)
        self.crash_downtime_seconds = float(crash_downtime_seconds)
        self.dropped_request_penalty_s = float(dropped_request_penalty_s)
        self._injector_factory: InjectorFactory = (
            injector_factory if injector_factory is not None else (lambda _seed: [])
        )
        #: Each node's cumulative leak-rate overrides (mutate_leak_rates).
        self._injector_overrides: list[dict] = [{} for _ in range(num_nodes)]
        self.balancer = LoadBalancer(routing_policy)
        self.coordinator = coordinator if coordinator is not None else NoClusterRejuvenation()
        self.status = FleetStatus(num_nodes)
        self.telemetry = telemetry_runtime.active()
        self._finished = False
        self._started = False
        #: Boundary tick of the incremental surface: every tick at or before
        #: it is fully processed, nothing after it has begun.
        self._current_tick = 0
        self._build()
        if self.telemetry is not None:
            self.coordinator.telemetry = self.telemetry
            self.telemetry.event(
                "run_begin",
                0,
                run="fleet",
                data={"nodes": num_nodes, "total_ebs": total_ebs, "seed": seed, **self._run_tags},
            )

    @abc.abstractmethod
    def _build(self) -> None:
        """Check what only this tier rejects and build its fleet state."""

    def _node_seed(self, node_id: int) -> int:
        """Base seed of node ``node_id``, derived from the master seed."""
        return self.seed + _NODE_SEED_STRIDE * (node_id + 1)

    def _node_injector_factory(self, node_id: int) -> InjectorFactory:
        """The injector factory of ``node_id``: the fleet's, plus the node's overrides.

        It holds no reference to the engine, so a finished engine is freed as
        soon as it is dropped rather than at the next cyclic collection.
        """
        return functools.partial(
            _overridden_injectors, self._injector_factory, self._injector_overrides[node_id]
        )

    # ------------------------------------------------------------------- run

    def run(self, max_seconds: float) -> ClusterOutcome:
        """Operate the fleet for ``max_seconds`` and return the outcome.

        Unlike a single-server run the cluster never "ends with the crash":
        crashed nodes recover after their downtime and rejoin, so the run
        always covers the full horizon.  The engine is single-use; batch
        callers get exactly one :meth:`step` over the whole horizon followed
        by :meth:`finish` (the golden parity tests pin the decomposition as
        bit-for-bit neutral).
        """
        if max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self._started or self._finished:
            raise RuntimeError("this cluster engine has already been run; create a new one")
        self.step(first_tick_at_or_after(max_seconds))
        return self.finish()

    # -------------------------------------------------------- incremental API

    @property
    def current_tick(self) -> int:
        """Boundary tick the engine is paused at (0 before the first step)."""
        return self._current_tick

    @property
    def finished(self) -> bool:
        return self._finished

    def _ensure_started(self) -> None:
        if not self._started:
            self._started = True
            self._start()

    def _start(self) -> None:
        """One-time set-up before the first tick or mutation (optional hook)."""

    def step(self, ticks: int) -> int:
        """Advance the fleet by exactly ``ticks`` ticks; return the new tick.

        The incremental primitive behind :meth:`run`: chunking a horizon into
        arbitrary ``step`` calls is bit-for-bit identical to one batch run
        (the chunking parity suites pin it for every tier).
        """
        if ticks < 1:
            raise ValueError("ticks must be at least 1")
        self._check_mutable()
        self._ensure_started()
        target = self._current_tick + ticks
        self._advance(target)
        self._current_tick = target
        return target

    def finish(self) -> ClusterOutcome:
        """Settle all lazy accounting and freeze the outcome (single use)."""
        self._check_mutable()
        self._finished = True
        self._settle()
        outcome = self.status.outcome(
            self._node_outcomes(),
            routing_description=self.balancer.policy.describe(),
            coordinator_description=self.coordinator.describe(),
        )
        self._telemetry_finalize(outcome)
        return outcome

    @abc.abstractmethod
    def _advance(self, target: int) -> None:
        """Process ticks ``current_tick + 1`` through ``target``."""

    def _settle(self) -> None:
        """Settle lazy accounting through the boundary before the outcome (optional hook)."""

    # ------------------------------------------------------------ node reads

    @abc.abstractmethod
    def _node_state(self, node_id: int) -> NodeState:
        """Current lifecycle state of one node."""

    @abc.abstractmethod
    def _node_counts(self) -> tuple[int, int]:
        """``(accepting, live)`` node counts at the boundary."""

    @abc.abstractmethod
    def _node_outcomes(self) -> list[NodeOutcome]:
        """The per-node rows of the outcome, in node order."""

    @abc.abstractmethod
    def node_snapshots(self) -> list[dict]:
        """Read-only per-node status dicts (see :meth:`ClusterNode.status_dict`)."""

    # ------------------------------------------------------------- mutations
    #
    # Live scenario mutations, applied only while the engine is paused at a
    # step boundary ("after tick j fully settled, before tick j+1 begins").
    # Each mutation emits one sim-channel "mutation" event, which binds the
    # command log into the telemetry digest: replaying the same mutations at
    # the same ticks reproduces the digest byte-for-byte.  The apply hooks
    # give every tier the same boundary semantics; the event tier stays
    # bit-for-bit comparable with the per-second reference loop under any
    # mutation sequence because its hooks mirror that loop's ticks exactly.

    def _check_mutable(self) -> None:
        if self._finished:
            raise RuntimeError("this cluster engine has already finished")

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node_id must be within [0, {self.num_nodes - 1}]")

    def _record_mutation(self, kind: str, data: dict) -> None:
        if self.telemetry is not None:
            payload = {"kind": kind}
            payload.update(data)
            self.telemetry.event("mutation", self._current_tick, run="fleet", data=payload)

    def mutate_load(self, total_ebs: int) -> None:
        """Resize the fleet-level browser population at the boundary tick."""
        self._check_mutable()
        if total_ebs < 1:
            raise ValueError("total_ebs must be at least 1")
        self._ensure_started()
        previous = self.total_ebs
        self.total_ebs = total_ebs
        self._apply_load(total_ebs)
        self._record_mutation("load", {"total_ebs": total_ebs, "previous": previous})

    def mutate_kill(self, node_id: int, reason: str = "operator kill") -> None:
        """Crash a live node at the boundary tick (unplanned restart follows).

        Semantically the node completes tick ``j`` normally and its process
        dies before tick ``j+1``: downtime is charged from ``j+1`` and the
        node rejoins after its crash-recovery window, exactly as if a served
        request had crashed it.
        """
        self._check_mutable()
        self._check_node(node_id)
        state = self._node_state(node_id)
        if state is NodeState.RESTARTING:
            raise ValueError(f"node {node_id} is not live (state: {state.value})")
        self._ensure_started()
        self._apply_kill(node_id, ServerCrash(f"operator kill: {reason}", resource="operator"))
        self._record_mutation("kill", {"node": node_id, "reason": reason})

    def mutate_rejuvenate(self, node_id: int) -> None:
        """Trigger an operator-initiated rejuvenation (drain, then restart).

        Equivalent to the coordinator having scheduled this node at the end
        of the boundary tick: the node drains for ``drain_seconds`` and then
        takes its planned restart downtime.
        """
        self._check_mutable()
        self._check_node(node_id)
        state = self._node_state(node_id)
        if state is not NodeState.ACTIVE:
            raise ValueError(
                f"only an ACTIVE node can be rejuvenated (node {node_id} is {state.value})"
            )
        self._ensure_started()
        self._apply_rejuvenate(node_id)
        self._record_mutation("rejuvenate", {"node": node_id})

    def mutate_leak_rates(
        self,
        node_id: int | None = None,
        memory_n: int | None = None,
        thread_m: int | None = None,
        thread_t: int | None = None,
    ) -> None:
        """Change the aging-fault injection rates of one node (or the fleet).

        ``memory_n`` / ``thread_m`` of 0 disable the respective injector;
        omitted parameters stay unchanged.  The overrides accumulate per node
        and apply to the live incarnation at once and to every injector built
        for that node from then on.
        """
        self._check_mutable()
        overrides = leak_rate_overrides(memory_n, thread_m, thread_t)
        if node_id is not None:
            self._check_node(node_id)
        self._ensure_started()
        for target in range(self.num_nodes) if node_id is None else (node_id,):
            self._injector_overrides[target].update(overrides)
            self._apply_leak_rates(target, overrides)
        self._record_mutation(
            "leak_rate",
            {"node": node_id, **{key: overrides[key] for key in sorted(overrides)}},
        )

    @abc.abstractmethod
    def _apply_load(self, total_ebs: int) -> None:
        """Apply a new fleet population (``self.total_ebs`` already holds it)."""

    @abc.abstractmethod
    def _apply_kill(self, node_id: int, crash: ServerCrash) -> None:
        """Crash a live node between the boundary tick and the next."""

    @abc.abstractmethod
    def _apply_rejuvenate(self, node_id: int) -> None:
        """Start draining an ACTIVE node at the boundary tick."""

    @abc.abstractmethod
    def _apply_leak_rates(self, node_id: int, overrides: dict) -> None:
        """Apply new leak-rate ``overrides`` (already recorded) to one node."""

    # -------------------------------------------------------------- snapshots

    def fleet_snapshot(self) -> dict:
        """Read-only fleet summary at the current boundary (observer-safe).

        Neither starts the engine nor settles lazy state: per-node uptime can
        lag by up to one monitoring interval on the event tier.  The running
        aggregates of :class:`FleetStatus` are exact at every step boundary.
        """
        active, live = self._node_counts()
        snapshot = self.status.snapshot_dict()
        snapshot.update(
            {
                "engine": type(self).__name__,
                "tick": self._current_tick,
                "sim_seconds": self._current_tick * TICK_SECONDS,
                "num_nodes": self.num_nodes,
                "total_ebs": self.total_ebs,
                "active_nodes": active,
                "live_nodes": live,
                "requests_rerouted": self.requests_rerouted,
                "routing": self.balancer.policy.describe(),
                "coordinator": self.coordinator.describe(),
                "finished": self._finished,
            }
        )
        return snapshot

    # ------------------------------------------------------------- telemetry

    def _telemetry_finalize(self, outcome: ClusterOutcome) -> None:
        """Flush end-of-run fleet telemetry (sim channel, gauges: idempotent)."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        self._tier_telemetry(telemetry)
        telemetry.gauge("cluster.served_requests", outcome.served_requests)
        telemetry.gauge("cluster.dropped_requests", outcome.dropped_requests)
        telemetry.gauge("cluster.crashes", outcome.crashes)
        telemetry.gauge("cluster.rejuvenations", outcome.rejuvenations)
        telemetry.gauge("cluster.availability", outcome.availability)
        telemetry.gauge("cluster.full_outage_seconds", outcome.full_outage_seconds)
        telemetry.gauge("cluster.degraded_seconds", outcome.degraded_seconds)
        telemetry.gauge("cluster.min_active_nodes", outcome.min_active_nodes)
        if self.num_nodes <= self._per_node_gauge_cap:
            for node in outcome.per_node:
                # Per-node routing totals: the sum of every routing decision
                # the balancer made in this node's favour (engine-invariant).
                telemetry.gauge(f"node.n{node.node_id}.requests_served", node.requests_served)
                telemetry.gauge(f"node.n{node.node_id}.uptime_seconds", node.uptime_seconds)
                telemetry.gauge(f"node.n{node.node_id}.crashes", node.crashes)
                telemetry.gauge(f"node.n{node.node_id}.rejuvenations", node.rejuvenations)
        telemetry.event(
            "run_end",
            self._current_tick,
            run="fleet",
            data={
                "served": outcome.served_requests,
                "dropped": outcome.dropped_requests,
                "crashes": outcome.crashes,
                "rejuvenations": outcome.rejuvenations,
            },
        )

    def _tier_telemetry(self, telemetry: Telemetry) -> None:
        """End-of-run telemetry only this tier has (optional hook)."""

    def describe(self) -> str:
        return (
            f"{type(self).__name__}({self.num_nodes} nodes, {self.total_ebs} EBs, "
            f"{self.balancer.describe()}, {self.coordinator.describe()})"
        )


class ClusterEngine(FleetEngine):
    """The exact, event-driven tier (see the module docstring).

    Takes the :class:`FleetEngine` constructor keywords.
    """

    def _build(self) -> None:
        self.clock = SimulationClock()
        #: Fleet-shared forecast epoch: every node bumps it in lockstep with
        #: its own ``forecast_version``, giving the aging-aware routing
        #: policy an O(1) "has anything changed?" check per request.
        self.routing_epoch = RoutingEpoch()
        self.workload = WorkloadGenerator(
            num_browsers=self.total_ebs,
            mean_think_time_s=self.config.mean_think_time_s,
            mix=self.mix,
            seed=random.Random(self.seed).randrange(2**31),
        )
        # Request-draw caches of the routing loop: the mix is fixed for the
        # engine's life (see WorkloadGenerator.interaction_chooser), and
        # expovariate's lambd and the think cap replay the browsers' draw.
        self._chooser = self.workload.interaction_chooser()
        mean_think = self.workload.mean_think_time_s
        self._think = (1.0 / mean_think, 10.0 * mean_think)
        self.nodes: list[ClusterNode] = [
            ClusterNode(
                node_id=node_id,
                config=self.node_configs[node_id] if self.node_configs is not None else self.config,
                injector_factory=self._node_injector_factory(node_id),
                seed=self._node_seed(node_id),
                predictor=self.predictor,
                monitor_factory=self.monitor_factory,
                alarm_threshold_seconds=self.alarm_threshold_seconds,
                alarm_consecutive=self.alarm_consecutive,
                drain_seconds=self.drain_seconds,
                rejuvenation_downtime_seconds=self.rejuvenation_downtime_seconds,
                crash_downtime_seconds=self.crash_downtime_seconds,
                routing_epoch=self.routing_epoch,
                fleet_clock=self.clock,
            )
            for node_id in range(self.num_nodes)
        ]
        self.requests_rerouted = 0

        # Event-driven scheduler state (populated on the first step()).
        self._events: list[tuple[int, int, int]] = []
        #: Browser fires: (tick, browser_id, index, browser, rng.random), the
        #: single-server loop's heap entries (see repro.testbed.events).
        self._browser_fires: list[tuple] = []
        self._active_count = self.num_nodes
        self._candidates: list[ClusterNode] | None = None

    def _start(self) -> None:
        """Arm the initial wake events (first step of the event-driven engine)."""
        for index, browser in enumerate(self.workload.browser_population()):
            heapq.heappush(
                self._browser_fires,
                (
                    ticks_until_nonpositive(browser.remaining_think_s),
                    browser.browser_id,
                    index,
                    browser,
                    browser._rng.random,
                ),
            )
        for node in self.nodes:
            self._schedule_node_wakes(node, floor_tick=1)
        hint = self.coordinator.next_decision_tick(0, self.nodes)
        if hint is not None:
            # A hint at or before the current tick means "decide as soon as
            # possible": clamp to the next tick (the reference engine's
            # per-tick cadence) rather than scheduling an impossible wake.
            heapq.heappush(self._events, (max(hint, 1), _DECIDE, -1))

    def _advance(self, target: int) -> None:
        """Jump from event tick to event tick up to ``target``.

        Quiet spans split exactly at any boundary, the clock counts integer
        ticks, and the fleet clock is parked on the boundary so mutations
        applied between steps stamp the right tick.
        """
        current = self._current_tick
        while current < target:
            heads = []
            if self._browser_fires:
                heads.append(self._browser_fires[0][0])
            if self._events:
                heads.append(self._events[0][0])
            upcoming = min(heads) if heads else None
            if upcoming is None or upcoming > target:
                self.status.record_quiet_span(target - current, self._active_count)
                current = target
                break
            if upcoming > current + 1:
                self.status.record_quiet_span(upcoming - 1 - current, self._active_count)
            if self.telemetry is not None:
                self.telemetry.count("cluster.event_ticks", channel=_ENGINE_CHANNEL)
                self.telemetry.observe(
                    "cluster.fast_forward_ticks", upcoming - current, channel=_ENGINE_CHANNEL
                )
            current = upcoming
            self._process_event_tick(current)
        if self.clock.ticks < target:
            self.clock.advance(target - self.clock.ticks)

    def _settle(self) -> None:
        for node in self.nodes:
            node.ev_flush(self._current_tick)

    # --------------------------------------------------------- event plumbing

    def _schedule_node_wakes(self, node: ClusterNode, floor_tick: int) -> None:
        """Arm the mark and injector wake-ups of a node's current incarnation."""
        mark = node.ev_next_mark_tick()
        if mark is not None:
            heapq.heappush(self._events, (max(mark, floor_tick), _MARK, node.node_id))
        wake = node.ev_next_injector_wake(floor_tick)
        if wake is not None:
            heapq.heappush(self._events, (wake, _INJECTOR, node.node_id))

    def _accepting_candidates(self) -> list[ClusterNode]:
        if self._candidates is None:
            self._candidates = [node for node in self.nodes if node.accepting]
        return self._candidates

    def _handle_crash(self, node: ClusterNode, crash: ServerCrash, current: int) -> None:
        was_accepting = node.accepting
        rejoin_tick = node.ev_record_crash(current, crash)
        heapq.heappush(self._events, (rejoin_tick, _TRANSITION, node.node_id))
        if was_accepting:
            self._active_count -= 1
        self._candidates = None

    # ---------------------------------------------------------- event ticks

    def _process_event_tick(self, current: int) -> None:
        """Process one tick in exactly the reference engine's phase order.

        Phases mirror the reference loop's tick: lifecycle transitions first
        (the reference advances every node before routing), then request
        routing, then injector drives, then tick finalisation (OS update,
        sampling, prediction), then the fleet status record, then the
        coordinator's drain decisions.
        """
        self.clock.advance(current - self.clock.ticks)
        now = self.clock.now
        nodes = self.nodes
        events = self._events
        heappush = heapq.heappush
        heappop = heapq.heappop
        # The event heap orders by (tick, kind, node_id), so same-tick pops
        # arrive grouped by kind with ascending node ids: the mark and
        # injection lists below are sorted, with duplicates adjacent.
        marks: list[int] = []
        injections: list[int] = []
        decide_needed = False

        # -- lifecycle transitions and scheduled wake-ups
        while events and events[0][0] == current:
            _, kind, node_id = heappop(events)
            if kind == _MARK:
                if nodes[node_id].live and not (marks and marks[-1] == node_id):
                    marks.append(node_id)
                continue
            if kind == _INJECTOR:
                if nodes[node_id].live and not (injections and injections[-1] == node_id):
                    injections.append(node_id)
                continue
            if kind == _DECIDE:
                decide_needed = True
                continue
            node = nodes[node_id]
            if node.ev_transition_tick != current:
                continue  # superseded (e.g. a crash rescheduled the restart)
            if node.ev_apply_transition(current):
                # Restart complete: the node rejoins with a fresh incarnation.
                self._active_count += 1
                self._candidates = None
                decide_needed = True
                node.ev_sync_begin(current)
                # A fresh thread-leak injector may fire on the rejoin tick
                # itself; floor_tick=current lets that wake re-enter this
                # very loop iteration.
                self._schedule_node_wakes(node, floor_tick=current)
            else:
                # Drain expired: the node went down for its planned restart.
                heappush(events, (node.ev_transition_tick, _TRANSITION, node_id))

        # -- route this tick's requests, browser by browser
        served = 0
        dropped = 0
        browser_fires = self._browser_fires
        if browser_fires and browser_fires[0][0] == current:
            if self.balancer.policy.reads_tick_state:
                for node in self.nodes:
                    if node.accepting:
                        node.ev_serve_begin(current)
            browsers = self.workload.browser_population()
            nbrowsers = len(browsers)
            policy = self.balancer.policy
            penalty = self.dropped_request_penalty_s
            cum_weights, weights_total, weights_hi = self._chooser
            think_lambd, think_cap = self._think
            pop = heapq.heappop
            push = heapq.heappush
            ceil_ = math.ceil
            log_ = math.log
            while browser_fires and browser_fires[0][0] == current:
                entry = pop(browser_fires)
                index = entry[2]
                browser = entry[3]
                if index >= nbrowsers or browsers[index] is not browser:
                    continue  # stale: the browser left in a mid-run load change
                rand = entry[4]
                # random.choices replayed as one bisect; a crash reroutes the
                # same drawn interaction to the survivors.
                choice = bisect(cum_weights, rand() * weights_total, 0, weights_hi)
                response_time = penalty
                while True:
                    candidates = self._candidates
                    if candidates is None:
                        candidates = self._accepting_candidates()
                    if not candidates:
                        # Full outage: the request is lost and the browser backs off.
                        dropped += 1
                        break
                    target = policy.route(candidates)
                    target.ev_serve_begin(current)
                    try:
                        response_time = target.ev_serve(choice)
                    except ServerCrash as crash:
                        # The node died under this request: take it out of
                        # rotation and redistribute to the survivors.
                        self._handle_crash(target, crash, current)
                        self.requests_rerouted += 1
                        decide_needed = True
                        continue
                    target.requests_served += 1
                    served += 1
                    break
                # The browser completes eagerly and rethinks, exactly as in
                # the single-server loop of repro.testbed.events.
                browser.requests_issued += 1
                browser.requests_completed += 1
                think = -log_(1.0 - rand()) / think_lambd
                if think > think_cap:
                    think = think_cap
                browser._remaining_think_s = think
                next_fire = (
                    current + (1 if response_time <= 1.0 else ceil_(response_time)) + ceil_(think)
                )
                push(browser_fires, (next_fire, entry[1], index, browser, rand))

        # -- drive the scheduled injector events
        if injections:
            marked = set(marks)
            for node_id in injections:
                node = nodes[node_id]
                if not node.live:
                    continue  # crashed earlier this tick while serving
                node.ev_sync_begin(current)
                try:
                    node.drive_injectors()
                except ServerCrash as crash:
                    self._handle_crash(node, crash, current)
                    decide_needed = True
                    continue
                wake = node.ev_next_injector_wake(current + 1)
                if wake is not None:
                    heappush(events, (wake, _INJECTOR, node_id))
                if node_id not in marked:
                    # Close the tick now so the next mark stays on the fused
                    # fast path (end_tick with zero further activity).
                    node.ev_settle_open()

        # -- monitoring marks: eager finalize (OS update, sample, prediction).
        #    Every other begun tick settles lazily in the next fast-forward.
        live_marks = [node_id for node_id in marks if nodes[node_id].live]
        if live_marks:
            if self.balancer.policy.reads_tick_state:
                for node in nodes:
                    if node.accepting:
                        node.ev_serve_begin(current)
            allocations = self.balancer.allocations(nodes, self.total_ebs)
            for node_id in live_marks:
                node = nodes[node_id]
                sample = node.ev_mark(current, allocations.get(node_id, 0))
                if sample is not None:
                    decide_needed = True
                    heappush(events, (current + node.ev_mark_interval_ticks, _MARK, node_id))
                else:
                    heappush(events, (max(node.ev_next_mark_tick(), current + 1), _MARK, node_id))

        # -- fleet accounting for this tick
        self.status.record_tick(self._active_count, served=served, dropped=dropped)

        # -- coordinator decisions (the reference decides every tick; the
        #    built-in coordinators only change their answer at these ticks)
        if decide_needed:
            if self.coordinator.reads_node_uptime:
                for node in self.nodes:
                    if node.live:
                        node.ev_sync_begin(current)
            for node in self.coordinator.decide(now, self.nodes):
                drain_transition = node.ev_begin_drain(current)
                heapq.heappush(self._events, (drain_transition, _TRANSITION, node.node_id))
                self._active_count -= 1
                self._candidates = None
            hint = self.coordinator.next_decision_tick(current, self.nodes)
            if hint is not None:
                # Same clamp as at initialisation: a stale or immediate hint
                # degrades to deciding again next tick, never to a missed or
                # impossible wake.
                heapq.heappush(self._events, (max(hint, current + 1), _DECIDE, -1))

    # ------------------------------------------------------------- mutations

    def _apply_load(self, total_ebs: int) -> None:
        """Resize the browser population and schedule the newcomers.

        Growth draws fresh browser seeds from the workload generator's own
        stream (engine-invariant); shrink truncates the population tail.  A
        tick-by-tick loop first ticks a new browser on the following tick, so
        the engine schedules its first fire accordingly.
        """
        j = self._current_tick
        old_count = self.workload.num_browsers
        self.workload.set_num_browsers(total_ebs)
        browsers = self.workload.browser_population()
        for index in range(old_count, len(browsers)):
            browser = browsers[index]
            first = j + ticks_until_nonpositive(browser.remaining_think_s)
            heapq.heappush(
                self._browser_fires,
                (max(first, j + 1), browser.browser_id, index, browser, browser._rng.random),
            )
        heapq.heappush(self._events, (j + 1, _DECIDE, -1))

    def _apply_kill(self, node_id: int, crash: ServerCrash) -> None:
        j = self._current_tick
        node = self.nodes[node_id]
        was_accepting = node.accepting
        rejoin_tick = node.ev_record_crash_at_boundary(j, crash)
        heapq.heappush(self._events, (rejoin_tick, _TRANSITION, node_id))
        if was_accepting:
            self._active_count -= 1
        self._candidates = None
        heapq.heappush(self._events, (j + 1, _DECIDE, -1))

    def _apply_rejuvenate(self, node_id: int) -> None:
        j = self._current_tick
        drain_transition = self.nodes[node_id].ev_begin_drain(j)
        heapq.heappush(self._events, (drain_transition, _TRANSITION, node_id))
        self._active_count -= 1
        self._candidates = None
        heapq.heappush(self._events, (j + 1, _DECIDE, -1))

    def _apply_leak_rates(self, node_id: int, overrides: dict) -> None:
        """Retune the live incarnation's injectors.

        Later incarnations get the cumulative overrides through their
        node's injector factory.
        Injector wake schedules are untouched: the thread injector's
        next-injection time survives a rate change by design, and the memory
        leak is purely workload-driven.
        """
        node = self.nodes[node_id]
        if node.live and node.simulation is not None:
            apply_injector_overrides(node.simulation.injectors, overrides)

    # ------------------------------------------------------------ node reads

    def _node_state(self, node_id: int) -> NodeState:
        return self.nodes[node_id].state

    def _node_counts(self) -> tuple[int, int]:
        return (
            sum(1 for node in self.nodes if node.accepting),
            sum(1 for node in self.nodes if node.live),
        )

    def _node_outcomes(self) -> list[NodeOutcome]:
        return [
            NodeOutcome(
                node_id=node.node_id,
                uptime_seconds=node.uptime_seconds,
                planned_downtime_seconds=node.planned_downtime_seconds,
                unplanned_downtime_seconds=node.unplanned_downtime_seconds,
                crashes=node.crashes,
                rejuvenations=node.rejuvenations,
                requests_served=node.requests_served,
            )
            for node in self.nodes
        ]

    def node_snapshots(self) -> list[dict]:
        return [node.status_dict() for node in self.nodes]

    def _tier_telemetry(self, telemetry: Telemetry) -> None:
        for node in self.nodes:
            if node.simulation is not None:
                node.simulation._telemetry_finish()
        telemetry.gauge("cluster.rerouted_requests", self.requests_rerouted)
