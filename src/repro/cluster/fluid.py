"""Fluid cluster engine: whole-fleet mask updates behind the exact contract.

``FluidClusterEngine`` operates the same scenario surface as the exact
:class:`~repro.cluster.engine.ClusterEngine` -- same constructor keywords,
same ``run(max_seconds) -> ClusterOutcome`` contract, same coordinator /
routing-policy objects -- but replaces every per-browser and per-node Python
loop with per-tick numpy array operations over the entire fleet:

* the browser population becomes a per-node Poisson arrival draw whose rate
  is the closed-loop ``assigned_ebs / (think + response)`` form,
* node settlement (GC, leaks, footprint, load, marks) is one
  :class:`~repro.testbed.fluid.FluidFleet` step per tick,
* routing is an allocation *vector* recomputed only when membership or
  weights change (round-robin and least-connections collapse to the even
  split they converge to; aging-aware uses the frozen per-mark weights),
* crash and rejuvenation lifecycle are int8 state-mask updates, and
* the M5P feature pipeline is one :class:`~repro.core.features.FeatureBank`
  stream per node, built from the predictor's own catalogue (so its window
  too), plus one batch ``AgingPredictor.predict_matrix`` call per mark,
  which routes the due nodes' rows down the M5P tree as index arrays and
  sums each node's linear model column by column.  A node's rows and
  forecasts are bit-for-bit the ones a lone node with the same marks would
  get, so batching is exact, not part of the approximation.

Accuracy contract: aggregate, not bit-for-bit -- the validation harness
(``tests/cluster/test_fluid_validation.py``) pins availability, crash counts
and uptime-per-crash against the exact engines on overlapping scales.
Determinism contract: seeded runs are byte-identical across repeats and
worker settings (one ``PCG64`` stream consumed in fixed per-tick order), but
the stream is tier-specific: telemetry digests of fluid runs are stable yet
deliberately *not* comparable to the exact engines' digests.

Unsupported pieces fail loudly instead of approximating silently: custom
routing policies, custom coordinators, lifecycle-managed monitors
(``monitor_factory``) and non-paper fault injectors all raise ``ValueError``
pointing back at the exact tiers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.balancer import LoadBalancer
from repro.cluster.coordinator import (
    ClusterRejuvenationCoordinator,
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.engine import _NODE_SEED_STRIDE
from repro.cluster.node import InjectorFactory, MonitorFactory
from repro.cluster.routing import (
    AgingAwareRouting,
    LeastConnectionsRouting,
    RoundRobinRouting,
    RoutingPolicy,
)
from repro.cluster.status import ClusterOutcome, FleetStatus, NodeOutcome
from repro.core.features import RAW_VARIABLES, FeatureBank
from repro.core.predictor import AgingPredictor
from repro.testbed.config import TestbedConfig
from repro.testbed.fluid import FluidFleet, leak_rates_from_injectors, mix_stats
from repro.testbed.timeline import first_tick_at_or_after
from repro.testbed.tpcw.workload import WorkloadMix
from repro.telemetry import runtime as telemetry_runtime

__all__ = ["FluidClusterEngine"]

#: Node lifecycle states as int8 mask values (mirrors ``NodeState``).
_ACTIVE, _DRAINING, _RESTARTING = 0, 1, 2

#: Per-node telemetry gauges are emitted only for fleets up to this width;
#: above it the sim channel keeps fleet aggregates and lifecycle events only
#: (documented tier granularity -- a 1000-node run must not emit 4000 gauges).
_PER_NODE_GAUGE_CAP = 64


def _largest_remainder(weights: np.ndarray, node_ids: np.ndarray, total: int) -> np.ndarray:
    """Vectorized twin of ``LoadBalancer.allocations`` for the candidates.

    Shares ``total`` proportionally to ``weights`` with largest-remainder
    rounding; leftover units go to the largest fractional parts, ties broken
    toward smaller node ids (the balancer sorts by ``(fraction, -node_id)``
    descending).
    """
    total_weight = float(weights.sum())
    if total_weight <= 0.0:
        weights = np.ones_like(weights)
        total_weight = float(weights.size)
    quotas = total * weights / total_weight
    floors = np.floor(quotas).astype(np.int64)
    remainder = int(total - floors.sum())
    if remainder > 0:
        order = np.lexsort((node_ids, -(quotas - floors)))
        floors[order[:remainder]] += 1
    return floors


class FluidClusterEngine:
    """Aggregate (mean-field) fleet engine; see the module docstring.

    Constructor keywords match :class:`~repro.cluster.engine.ClusterEngine`
    so :func:`repro.experiments.cluster.run_cluster_policy` can swap engines
    behind one scenario description.
    """

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
        if monitor_factory is not None:
            raise ValueError(
                "fluid tier does not support lifecycle-managed monitors "
                "(monitor_factory / lifecycle=true); use engine='event'"
            )
        self.config = config if config is not None else TestbedConfig()
        if node_configs is not None:
            node_configs = list(node_configs)
            if len(node_configs) != num_nodes:
                raise ValueError(f"node_configs must provide one configuration per node ({num_nodes})")
            for node_config in node_configs:
                if node_config.tick_seconds != self.config.tick_seconds:
                    raise ValueError("every node must share the cluster's tick_seconds")
        self.num_nodes = num_nodes
        self.node_configs = node_configs
        self.total_ebs = total_ebs
        self.seed = seed
        self.mix = mix
        self.predictor = predictor
        self.alarm_threshold_seconds = float(alarm_threshold_seconds)
        self.alarm_consecutive = int(alarm_consecutive)
        self.drain_seconds = float(drain_seconds)
        self.rejuvenation_downtime_seconds = float(rejuvenation_downtime_seconds)
        self.crash_downtime_seconds = float(crash_downtime_seconds)
        self.dropped_request_penalty_s = float(dropped_request_penalty_s)

        self.balancer = LoadBalancer(routing_policy)
        policy = self.balancer.policy
        if isinstance(policy, AgingAwareRouting):
            self._aging_routing: AgingAwareRouting | None = policy
        elif isinstance(policy, (RoundRobinRouting, LeastConnectionsRouting)):
            # Both are work-conserving over identical nodes: their stationary
            # allocation is the even split the weight vector already encodes.
            self._aging_routing = None
        else:
            raise ValueError(
                f"fluid tier has no closed form for routing policy {type(policy).__name__}; "
                "use engine='event' or 'per_second'"
            )
        self.coordinator = coordinator if coordinator is not None else NoClusterRejuvenation()
        if not isinstance(
            self.coordinator,
            (NoClusterRejuvenation, UncoordinatedTimeBasedRejuvenation, RollingPredictiveRejuvenation),
        ):
            raise ValueError(
                f"fluid tier has no closed form for coordinator {type(self.coordinator).__name__}; "
                "use engine='event' or 'per_second'"
            )

        configs = list(node_configs) if node_configs is not None else [self.config] * num_nodes
        factory: InjectorFactory = injector_factory if injector_factory is not None else (lambda _seed: [])
        stats = mix_stats(mix)
        self._injector_factory = factory
        self._mix_stats = stats
        #: Cumulative per-node leak-rate overrides (mutate_leak_rates).
        self._injector_overrides: dict[int, dict] = {}
        rates = [
            leak_rates_from_injectors(factory(seed + _NODE_SEED_STRIDE * (node_id + 1)), stats)
            for node_id in range(num_nodes)
        ]
        self.fleet = FluidFleet(configs, rates, mix)
        self.status = FleetStatus(num_nodes)
        self.telemetry = telemetry_runtime.active()
        if self.telemetry is not None:
            self.telemetry.event(
                "run_begin",
                0,
                run="fleet",
                data={"nodes": num_nodes, "total_ebs": total_ebs, "seed": seed, "tier": "fluid"},
            )
        self._finished = False
        self._started = False
        #: Boundary tick of the incremental surface (0 before the first step).
        self._current_tick = 0

    # ------------------------------------------------------------------- run

    def run(self, max_seconds: float) -> ClusterOutcome:
        """Operate the fleet for ``max_seconds`` and return the outcome."""
        if max_seconds <= 0:
            raise ValueError("max_seconds must be positive")
        if self._started or self._finished:
            raise RuntimeError("this cluster engine has already been run; create a new one")
        self.step(first_tick_at_or_after(max_seconds, self.config.tick_seconds))
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
        """Materialise the per-run state the batch loop used to keep in locals.

        Everything the per-tick body touches lives on the instance from here
        on, so the run can pause at any tick boundary and resume (or be
        mutated) without replaying.  The single ``PCG64`` stream is consumed
        in a fixed per-tick order, which makes any chunking of ``step`` calls
        byte-identical to one batch run.
        """
        if self._started:
            return
        self._started = True
        n = self.num_nodes
        tick = self.config.tick_seconds
        self._mark_ticks = max(1, first_tick_at_or_after(self.config.monitoring_interval_s, tick))
        self._drain_ticks = max(1, first_tick_at_or_after(self.drain_seconds, tick))
        self._rejuvenation_ticks = max(
            1, first_tick_at_or_after(self.rejuvenation_downtime_seconds, tick)
        )
        self._crash_ticks = max(1, first_tick_at_or_after(self.crash_downtime_seconds, tick))
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        self._ids = np.arange(n)

        self._time_based = (
            self.coordinator if isinstance(self.coordinator, UncoordinatedTimeBasedRejuvenation) else None
        )
        self._rolling = (
            self.coordinator if isinstance(self.coordinator, RollingPredictiveRejuvenation) else None
        )
        self._interval_ticks = (
            max(1, first_tick_at_or_after(self._time_based.interval_seconds, tick))
            if self._time_based
            else 0
        )
        self._uses_marks = (
            self.predictor is not None or self._aging_routing is not None or self._rolling is not None
        )
        self._bank = FeatureBank(self.predictor.catalog, n) if self.predictor is not None else None

        # Lifecycle masks and per-node accounting.
        self._state = np.zeros(n, dtype=np.int8)
        self._planned = np.zeros(n, dtype=bool)
        self._transition_tick = np.full(n, -1, dtype=np.int64)
        self._incarnation_tick = np.zeros(n, dtype=np.int64)
        self._next_mark = np.full(n, self._mark_ticks, dtype=np.int64)
        self._uptime = np.zeros(n)
        self._planned_down = np.zeros(n)
        self._unplanned_down = np.zeros(n)
        self._crashes = np.zeros(n, dtype=np.int64)
        self._rejuvenations = np.zeros(n, dtype=np.int64)
        self._served_node = np.zeros(n, dtype=np.int64)
        self._predicted = np.full(n, np.inf)
        self._streak = np.zeros(n, dtype=np.int64)
        self._alarm = np.zeros(n, dtype=bool)
        self._weights = np.ones(n)
        self._allocation = np.zeros(n, dtype=np.int64)
        self._allocation_dirty = True
        self._decision_dirty = True
        self._refresh_outage_rate()

    def _refresh_outage_rate(self) -> None:
        think = self.config.mean_think_time_s
        self._outage_rate = self.total_ebs / (think + self.dropped_request_penalty_s)

    def step(self, ticks: int) -> int:
        """Advance the fleet by exactly ``ticks`` ticks; return the new tick."""
        if ticks < 1:
            raise ValueError("ticks must be at least 1")
        if self._finished:
            raise RuntimeError("this cluster engine has already finished")
        self._ensure_started()
        target = self._current_tick + ticks
        for tick_index in range(self._current_tick + 1, target + 1):
            self._run_tick(tick_index)
        self._current_tick = target
        return target

    def finish(self) -> ClusterOutcome:
        """Freeze the outcome at the current boundary (single use)."""
        if self._finished:
            raise RuntimeError("this cluster engine has already finished")
        self._ensure_started()
        self._finished = True
        outcome = self._build_outcome(
            self._uptime,
            self._planned_down,
            self._unplanned_down,
            self._crashes,
            self._rejuvenations,
            self._served_node,
        )
        self._telemetry_finalize(outcome, self._current_tick)
        return outcome

    # -------------------------------------------------------------- per tick

    def _run_tick(self, tick_index: int) -> None:
        n = self.num_nodes
        tick = self.config.tick_seconds
        state = self._state
        planned = self._planned
        transition_tick = self._transition_tick
        next_mark = self._next_mark
        predicted = self._predicted
        streak = self._streak
        alarm = self._alarm
        weights = self._weights
        ids = self._ids
        bank = self._bank
        rng = self._rng
        rolling = self._rolling
        time_based = self._time_based

        # ----- lifecycle transitions due this tick
        due = transition_tick == tick_index
        if due.any():
            ending_drain = due & (state == _DRAINING)
            rejoining = due & (state == _RESTARTING)
            if ending_drain.any():
                state[ending_drain] = _RESTARTING
                transition_tick[ending_drain] = tick_index + self._rejuvenation_ticks
                self._rejuvenations[ending_drain] += 1
                self._emit_lifecycle("restart_begin", tick_index, ending_drain)
            if rejoining.any():
                state[rejoining] = _ACTIVE
                planned[rejoining] = False
                transition_tick[rejoining] = -1
                self._incarnation_tick[rejoining] = tick_index
                next_mark[rejoining] = tick_index + self._mark_ticks
                predicted[rejoining] = np.inf
                streak[rejoining] = 0
                alarm[rejoining] = False
                weights[rejoining] = 1.0
                self.fleet.reset(rejoining)
                if bank is not None:
                    bank.reset(rejoining)
                self._emit_lifecycle("node_rejoin", tick_index, rejoining)
                self._allocation_dirty = self._decision_dirty = True

        # ----- coordinator decisions
        drain_now = np.zeros(n, dtype=bool)
        if time_based is not None:
            drain_now = (state == _ACTIVE) & (
                tick_index - self._incarnation_tick >= self._interval_ticks
            )
        elif rolling is not None and self._decision_dirty:
            self._decision_dirty = False
            budget = rolling.max_concurrent_restarts - int(planned.sum())
            if budget > 0:
                floor = rolling.min_active_nodes(n)
                active = int((state == _ACTIVE).sum())
                alarmed = ids[(state == _ACTIVE) & alarm]
                if alarmed.size:
                    # Most urgent first, node id breaking forecast ties.
                    alarmed = alarmed[np.lexsort((alarmed, predicted[alarmed]))]
                    for node_id in alarmed:
                        if budget <= 0 or active - 1 < floor:
                            break
                        drain_now[node_id] = True
                        budget -= 1
                        active -= 1
        if drain_now.any():
            state[drain_now] = _DRAINING
            planned[drain_now] = True
            transition_tick[drain_now] = tick_index + self._drain_ticks
            self._emit_lifecycle("drain_begin", tick_index, drain_now)
            self._allocation_dirty = True

        # ----- allocation vector (recomputed only when inputs moved)
        if self._allocation_dirty:
            self._allocation_dirty = False
            accepting = state == _ACTIVE
            self._allocation = np.zeros(n, dtype=np.int64)
            if accepting.any():
                self._allocation[accepting] = _largest_remainder(
                    weights[accepting], ids[accepting], self.total_ebs
                )
        allocation = self._allocation

        # ----- arrivals: one vectorized Poisson draw for the whole fleet
        live = state != _RESTARTING
        lam = self.fleet.arrival_rate(allocation.astype(float)) * tick
        arrivals = rng.poisson(lam).astype(float)
        if not (state == _ACTIVE).any():
            dropped = int(rng.poisson(self._outage_rate * tick))
        else:
            dropped = 0

        # ----- physics settlement and crash masks
        crashed = self.fleet.step(live, arrivals, tick)
        served_tick = int(arrivals.sum())
        self._served_node += arrivals.astype(np.int64)
        if crashed.any():
            self._crashes[crashed] += 1
            state[crashed] = _RESTARTING
            planned[crashed] = False
            transition_tick[crashed] = tick_index + self._crash_ticks
            self._emit_lifecycle("node_crash", tick_index, crashed)
            self._allocation_dirty = self._decision_dirty = True
            live = state != _RESTARTING

        # ----- monitoring marks: vectorized features, one batch predict
        if self._uses_marks:
            marking = live & (next_mark == tick_index)
            if marking.any():
                raw = self.fleet.sample_fields(marking, self._mark_ticks * tick, allocation)
                if bank is not None and self.predictor is not None:
                    due_idx = ids[marking]
                    rows = bank.push(
                        due_idx,
                        tick_index * tick,
                        np.column_stack([raw[name][due_idx] for name in RAW_VARIABLES]),
                    )
                    forecasts = self.predictor.predict_matrix(rows)
                    predicted[due_idx] = forecasts
                    raised = forecasts <= self.alarm_threshold_seconds
                    streak[due_idx] = np.where(raised, streak[due_idx] + 1, 0)
                    alarm[due_idx] |= streak[due_idx] >= self.alarm_consecutive
                    if self._aging_routing is not None:
                        policy = self._aging_routing
                        weights[due_idx] = np.clip(
                            forecasts / policy.ttf_comfort_seconds, policy.shed_floor, 1.0
                        )
                        self._allocation_dirty = True
                    self._decision_dirty = True
                next_mark[marking] += self._mark_ticks
        elif (next_mark <= tick_index).any():
            # No consumer of marks: still drain accumulators on cadence so
            # a later consumer change cannot silently alter rates.
            marking = live & (next_mark == tick_index)
            if marking.any():
                self.fleet.sample_fields(marking, self._mark_ticks * tick, allocation)
                next_mark[marking] += self._mark_ticks

        # ----- accounting
        active_count = int((state == _ACTIVE).sum())
        self.status.record_tick(tick, active_count, served_tick, dropped)
        self._uptime[live] += tick
        down = ~live
        self._planned_down[down & planned] += tick
        self._unplanned_down[down & ~planned] += tick

    # ------------------------------------------------------------- mutations
    #
    # Boundary-tick scenario mutations; see ClusterEngine's mutation section
    # for the shared semantics.  The fluid tier applies them to its masks and
    # rate arrays directly; the RNG stream is untouched, so a replayed
    # command log reproduces the run byte-for-byte.

    def _check_mutable(self) -> None:
        if self._finished:
            raise RuntimeError("this cluster engine has already finished")

    def _record_mutation(self, kind: str, data: dict) -> None:
        if self.telemetry is not None:
            payload = {"kind": kind}
            payload.update(data)
            self.telemetry.event("mutation", self._current_tick, run="fleet", data=payload)

    def _check_node_id(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node_id must be within [0, {self.num_nodes - 1}]")

    def mutate_load(self, total_ebs: int) -> None:
        """Resize the fleet-level EB population at the boundary tick."""
        self._check_mutable()
        if total_ebs < 1:
            raise ValueError("total_ebs must be at least 1")
        self._ensure_started()
        previous = self.total_ebs
        self.total_ebs = total_ebs
        self._refresh_outage_rate()
        self._allocation_dirty = True
        self._record_mutation("load", {"total_ebs": total_ebs, "previous": previous})

    def mutate_kill(self, node_id: int, reason: str = "operator kill") -> None:
        """Crash a live node at the boundary (downtime charged from the next tick)."""
        self._check_mutable()
        self._check_node_id(node_id)
        self._ensure_started()
        if self._state[node_id] == _RESTARTING:
            raise ValueError(f"node {node_id} is not live (state: restarting)")
        j = self._current_tick
        self._crashes[node_id] += 1
        self._state[node_id] = _RESTARTING
        self._planned[node_id] = False
        self._transition_tick[node_id] = j + 1 + self._crash_ticks
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[node_id] = True
        self._emit_lifecycle("node_crash", j, mask)
        self._allocation_dirty = self._decision_dirty = True
        self._record_mutation("kill", {"node": node_id, "reason": reason})

    def mutate_rejuvenate(self, node_id: int) -> None:
        """Trigger an operator-initiated drain-then-restart at the boundary."""
        self._check_mutable()
        self._check_node_id(node_id)
        self._ensure_started()
        if self._state[node_id] != _ACTIVE:
            state_name = ("active", "draining", "restarting")[int(self._state[node_id])]
            raise ValueError(
                f"only an ACTIVE node can be rejuvenated (node {node_id} is {state_name})"
            )
        j = self._current_tick
        self._state[node_id] = _DRAINING
        self._planned[node_id] = True
        self._transition_tick[node_id] = j + 1 + self._drain_ticks
        mask = np.zeros(self.num_nodes, dtype=bool)
        mask[node_id] = True
        self._emit_lifecycle("drain_begin", j, mask)
        self._allocation_dirty = True
        self._record_mutation("rejuvenate", {"node": node_id})

    def mutate_leak_rates(
        self,
        node_id: int | None = None,
        memory_n: int | None = None,
        thread_m: int | None = None,
        thread_t: int | None = None,
    ) -> None:
        """Change the aging-fault rates of one node (or the fleet).

        Rebuilds the targeted nodes' injectors with the cumulative overrides
        applied and recomputes their closed-form leak rates in place; future
        incarnations inherit the same rates (the fluid tier has no
        per-incarnation injectors to rebuild).
        """
        self._check_mutable()
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
        if node_id is not None:
            self._check_node_id(node_id)
        self._ensure_started()
        # Late import: the override helper lives next to the exact engines.
        from repro.cluster.engine import apply_injector_overrides

        targets = range(self.num_nodes) if node_id is None else (node_id,)
        for target in targets:
            store = self._injector_overrides.setdefault(target, {})
            store.update(overrides)
            injectors = list(
                self._injector_factory(self.seed + _NODE_SEED_STRIDE * (target + 1))
            )
            apply_injector_overrides(injectors, store)
            rates = leak_rates_from_injectors(injectors, self._mix_stats)
            self.fleet.mem_rate[target] = rates.leaked_mb_per_request
            self.fleet.thread_rate[target] = rates.threads_per_second
            self.fleet.leak_quantum[target] = rates.leak_quantum_mb
        self._record_mutation(
            "leak_rate",
            {"node": node_id, **{key: overrides[key] for key in sorted(overrides)}},
        )

    # -------------------------------------------------------------- snapshots

    def fleet_snapshot(self) -> dict:
        """Read-only fleet summary at the current boundary (observer-safe)."""
        self._ensure_started()
        snapshot = self.status.snapshot_dict()
        snapshot.update(
            {
                "engine": type(self).__name__,
                "tick": self._current_tick,
                "sim_seconds": self._current_tick * self.config.tick_seconds,
                "num_nodes": self.num_nodes,
                "total_ebs": self.total_ebs,
                "active_nodes": int((self._state == _ACTIVE).sum()),
                "live_nodes": int((self._state != _RESTARTING).sum()),
                "requests_rerouted": 0,
                "routing": self.balancer.policy.describe(),
                "coordinator": self.coordinator.describe(),
                "finished": self._finished,
            }
        )
        return snapshot

    def node_snapshots(self) -> list[dict]:
        """Read-only per-node status dicts (same keys as ``ClusterNode.status_dict``)."""
        self._ensure_started()
        tick = self.config.tick_seconds
        state_names = ("active", "draining", "restarting")
        snapshots = []
        for node_id in range(self.num_nodes):
            state = int(self._state[node_id])
            live = state != _RESTARTING
            uptime = float(self._uptime[node_id])
            planned_down = float(self._planned_down[node_id])
            unplanned_down = float(self._unplanned_down[node_id])
            total = uptime + planned_down + unplanned_down
            forecast = float(self._predicted[node_id])
            snapshots.append(
                {
                    "node_id": node_id,
                    "state": state_names[state],
                    "live": live,
                    "accepting": state == _ACTIVE,
                    "alarm": bool(self._alarm[node_id]),
                    "incarnation": int(self._crashes[node_id] + self._rejuvenations[node_id]),
                    "current_uptime_seconds": (
                        (self._current_tick - int(self._incarnation_tick[node_id])) * tick
                        if live
                        else 0.0
                    ),
                    "predicted_ttf_seconds": (
                        forecast if live and np.isfinite(forecast) else None
                    ),
                    "uptime_seconds": uptime,
                    "planned_downtime_seconds": planned_down,
                    "unplanned_downtime_seconds": unplanned_down,
                    "availability": (uptime / total) if total > 0 else 0.0,
                    "crashes": int(self._crashes[node_id]),
                    "rejuvenations": int(self._rejuvenations[node_id]),
                    "requests_served": int(self._served_node[node_id]),
                }
            )
        return snapshots

    # ------------------------------------------------------------- assembly

    def _build_outcome(
        self,
        uptime: np.ndarray,
        planned_down: np.ndarray,
        unplanned_down: np.ndarray,
        crashes: np.ndarray,
        rejuvenations: np.ndarray,
        served_node: np.ndarray,
    ) -> ClusterOutcome:
        per_node = []
        for node_id in range(self.num_nodes):
            total = uptime[node_id] + planned_down[node_id] + unplanned_down[node_id]
            per_node.append(
                NodeOutcome(
                    node_id=node_id,
                    uptime_seconds=float(uptime[node_id]),
                    planned_downtime_seconds=float(planned_down[node_id]),
                    unplanned_downtime_seconds=float(unplanned_down[node_id]),
                    crashes=int(crashes[node_id]),
                    rejuvenations=int(rejuvenations[node_id]),
                    requests_served=int(served_node[node_id]),
                    availability=float(uptime[node_id] / total) if total > 0 else 1.0,
                )
            )
        status = self.status
        return ClusterOutcome(
            routing_description=self.balancer.policy.describe(),
            coordinator_description=self.coordinator.describe(),
            num_nodes=self.num_nodes,
            horizon_seconds=status.horizon_seconds,
            capacity_node_seconds=status.capacity_node_seconds,
            full_outage_seconds=status.full_outage_seconds,
            degraded_seconds=status.degraded_seconds,
            min_active_nodes=status.min_active_nodes,
            served_requests=status.served_requests,
            dropped_requests=status.dropped_requests,
            crashes=int(crashes.sum()),
            rejuvenations=int(rejuvenations.sum()),
            planned_downtime_seconds=float(planned_down.sum()),
            unplanned_downtime_seconds=float(unplanned_down.sum()),
            per_node=tuple(per_node),
        )

    # ------------------------------------------------------------ telemetry

    def _emit_lifecycle(self, kind: str, tick_index: int, mask: np.ndarray) -> None:
        """One sim-channel event per affected node (bounded by lifecycle churn)."""
        if self.telemetry is None:
            return
        for node_id in np.flatnonzero(mask):
            self.telemetry.event(kind, tick_index, run=f"n{node_id}", data={"tier": "fluid"})

    def _telemetry_finalize(self, outcome: ClusterOutcome, final_tick: int) -> None:
        """Fleet gauges plus ``run_end``; per-node gauges only for narrow fleets."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        telemetry.gauge("cluster.served_requests", outcome.served_requests)
        telemetry.gauge("cluster.dropped_requests", outcome.dropped_requests)
        telemetry.gauge("cluster.crashes", outcome.crashes)
        telemetry.gauge("cluster.rejuvenations", outcome.rejuvenations)
        telemetry.gauge("cluster.availability", outcome.availability)
        telemetry.gauge("cluster.full_outage_seconds", outcome.full_outage_seconds)
        telemetry.gauge("cluster.degraded_seconds", outcome.degraded_seconds)
        telemetry.gauge("cluster.min_active_nodes", outcome.min_active_nodes)
        if self.num_nodes <= _PER_NODE_GAUGE_CAP:
            for node in outcome.per_node:
                telemetry.gauge(f"node.n{node.node_id}.requests_served", node.requests_served)
                telemetry.gauge(f"node.n{node.node_id}.uptime_seconds", node.uptime_seconds)
                telemetry.gauge(f"node.n{node.node_id}.crashes", node.crashes)
                telemetry.gauge(f"node.n{node.node_id}.rejuvenations", node.rejuvenations)
        telemetry.event(
            "run_end",
            final_tick,
            run="fleet",
            data={
                "served": outcome.served_requests,
                "dropped": outcome.dropped_requests,
                "crashes": outcome.crashes,
                "rejuvenations": outcome.rejuvenations,
            },
        )

    def describe(self) -> str:
        return (
            f"FluidClusterEngine({self.num_nodes} nodes, {self.total_ebs} EBs, "
            f"{self.balancer.describe()}, {self.coordinator.describe()})"
        )
