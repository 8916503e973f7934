"""One server of the clustered deployment: a testbed simulation plus lifecycle.

A :class:`ClusterNode` owns a sequence of *incarnations* of the single-server
:class:`repro.testbed.engine.TestbedSimulation` -- one per (re)start -- and
the state machine around them:

``ACTIVE``
    The node accepts new requests from the load balancer.
``DRAINING``
    A rejuvenation has been scheduled: the node stays up (in-flight sessions
    finish, injectors keep running -- aging does not pause politely) but the
    balancer sends it no new traffic.  After the drain window it restarts.
``RESTARTING``
    The node is down, either for the short *planned* rejuvenation downtime or
    for the long *unplanned* crash recovery.

Each incarnation gets a derived seed, a fresh set of fault injectors from the
node's injector factory and, when a fitted :class:`AgingPredictor` is
supplied, a fresh :class:`OnlineAgingMonitor` streaming its monitoring marks
-- the node-local forecast that both the aging-aware routing policy and the
rolling rejuvenation coordinator consume.

The event-driven fast path (the ``ev_*`` methods) is a thin lifecycle layer
over the shared :class:`repro.testbed.events.TickSettlement` scheduler: each
incarnation owns one settlement instance that performs the exact batched
fast-forwards (lite begins, ``(footprint, busy)`` segments, deferred OS
settlement, fused monitoring marks), while the node adds what only a fleet
member has -- uptime/downtime accounting, drain/restart transitions and the
on-line monitor.  The one observable concession of the deferred mode: the
heap's GC event log stamps events with the last *settled* time, so cluster
nodes' GC timestamps can lag within a monitoring interval.  Nothing derived
from a cluster run reads them (the single-server engine keeps its clock
eager and is unaffected).

A node must be driven through exactly one of the two APIs for its whole
life: the ``ev_*`` events of the event-driven ``ClusterEngine``, or the
per-tick ``advance_tick``/``end_tick`` primitives, which only the
tick-everything reference loop of the test suite drives.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable

from repro.core.online import OnlineAgingMonitor, OnlinePrediction
from repro.core.predictor import AgingPredictor
from repro.lifecycle.manager import ManagedOnlineMonitor
from repro.testbed.config import TestbedConfig
from repro.testbed.engine import TestbedSimulation
from repro.testbed.errors import ServerCrash
from repro.testbed.events import TickSettlement
from repro.testbed.faults.injector import FaultInjector
from repro.testbed.monitoring.collector import MonitoringSample, Trace
from repro.testbed.clock import TICK_SECONDS, SimulationClock
from repro.testbed.timeline import ticks_until_nonpositive
from repro.testbed.tpcw.interactions import Interaction
from repro.cluster.routing import RoutingEpoch
from repro.telemetry import runtime as telemetry_runtime

__all__ = ["ClusterNode", "NodeState", "InjectorFactory", "MonitorFactory"]

#: Builds the fault injectors of one incarnation from its derived seed.
InjectorFactory = Callable[[int], Iterable[FaultInjector]]

#: Builds a node's lifecycle-managed monitor from its node id.  Unlike the
#: per-incarnation ``OnlineAgingMonitor`` the managed monitor is created once
#: per node and *persists across incarnations*: restarts call its ``reset()``
#: (fresh stream state) while the champion it promoted stays deployed --
#: knowledge won against one incarnation's drift survives the rejuvenation.
MonitorFactory = Callable[[int], ManagedOnlineMonitor]

#: Seed stride between incarnations of the same node.
_INCARNATION_SEED_STRIDE = 7919


class NodeState(enum.Enum):
    """Lifecycle state of a cluster node."""

    ACTIVE = "active"
    DRAINING = "draining"
    RESTARTING = "restarting"


class ClusterNode:
    """One load-balanced server and its restart lifecycle.

    Parameters
    ----------
    node_id:
        Stable identifier of the node within the fleet.
    config:
        Testbed configuration shared by every incarnation.
    injector_factory:
        Called with the incarnation seed to build fresh fault injectors
        (injectors are stateful and attach to one server).
    seed:
        Base seed of the node; incarnation ``k`` runs with
        ``seed + 7919 * k``.
    predictor:
        Optional fitted aging predictor; when present every incarnation
        streams its samples through an :class:`OnlineAgingMonitor`.
    monitor_factory:
        Optional :data:`MonitorFactory` building a lifecycle-managed monitor
        (``repro.lifecycle.ManagedOnlineMonitor``) from the node id.  Called
        once; the monitor persists across incarnations (``reset()`` per
        restart, promoted champions survive) and crashed incarnations are
        fed back via ``note_outcome``.  Mutually exclusive with
        ``predictor``.
    alarm_threshold_seconds / alarm_consecutive:
        Alarm configuration of the per-incarnation monitor.
    drain_seconds:
        How long a draining node keeps running before its planned restart.
    rejuvenation_downtime_seconds / crash_downtime_seconds:
        Downtime charged for a planned restart versus an unplanned crash.
    """

    def __init__(
        self,
        node_id: int,
        config: TestbedConfig,
        injector_factory: InjectorFactory,
        seed: int = 0,
        predictor: AgingPredictor | None = None,
        monitor_factory: MonitorFactory | None = None,
        alarm_threshold_seconds: float = 600.0,
        alarm_consecutive: int = 2,
        drain_seconds: float = 30.0,
        rejuvenation_downtime_seconds: float = 120.0,
        crash_downtime_seconds: float = 900.0,
        routing_epoch: RoutingEpoch | None = None,
        fleet_clock: SimulationClock | None = None,
    ) -> None:
        if drain_seconds < 0:
            raise ValueError("drain_seconds cannot be negative")
        if rejuvenation_downtime_seconds <= 0 or crash_downtime_seconds <= 0:
            raise ValueError("downtimes must be positive")
        if predictor is not None and not predictor.is_fitted:
            raise ValueError("the predictor must be fitted before it can monitor a node")
        if predictor is not None and monitor_factory is not None:
            raise ValueError("pass either a predictor or a monitor_factory, not both")
        self.node_id = node_id
        self.config = config
        self.injector_factory = injector_factory
        self.seed = seed
        self.predictor = predictor
        self.alarm_threshold_seconds = float(alarm_threshold_seconds)
        self.alarm_consecutive = alarm_consecutive
        self.drain_seconds = float(drain_seconds)
        self.rejuvenation_downtime_seconds = float(rejuvenation_downtime_seconds)
        self.crash_downtime_seconds = float(crash_downtime_seconds)

        #: Completed and current incarnation traces, in order.
        self.incarnations: list[Trace] = []
        self.state = NodeState.ACTIVE
        self.simulation: TestbedSimulation | None = None
        self.monitor: OnlineAgingMonitor | ManagedOnlineMonitor | None = None
        self.latest_prediction: OnlinePrediction | None = None
        #: Monotonic counter bumped whenever the TTF forecast can have
        #: changed (new monitoring mark, crash, drain restart, fresh
        #: incarnation).  The aging-aware routing policy keys its weight
        #: cache on it, so it must never miss a forecast transition.
        self.forecast_version = 0
        #: Fleet-shared epoch bumped in lockstep with ``forecast_version``
        #: (see :meth:`_bump_forecast`); lets the routing policy detect an
        #: unchanged fleet regime with one integer compare per request.
        self.routing_epoch = routing_epoch
        #: The engine's fleet clock, used only to stamp telemetry events.
        self._fleet_clock = fleet_clock
        self.telemetry = telemetry_runtime.active()
        self._telemetry_run = f"n{node_id}"
        #: Lifecycle-managed monitor shared by every incarnation (see
        #: :data:`MonitorFactory`); ``None`` for plain per-incarnation
        #: monitoring.
        self.managed_monitor: ManagedOnlineMonitor | None = None
        if monitor_factory is not None:
            self.managed_monitor = monitor_factory(node_id)
            if self._fleet_clock is not None:
                self.managed_monitor.bind_clock(self._fleet_clock)
        self._incarnation_index = 0
        self._drain_remaining = 0.0
        self._downtime_remaining = 0.0
        self._downtime_planned = False

        # Lifetime accounting (the live incarnation's clock carries its own
        # uptime; see the uptime_seconds property).
        self._finished_uptime_seconds = 0.0
        self.planned_downtime_seconds = 0.0
        self.unplanned_downtime_seconds = 0.0
        self.crashes = 0
        self.rejuvenations = 0
        self.requests_served = 0

        # Event-driven lifecycle bookkeeping (the settlement itself lives in
        # the shared scheduler; see _start_incarnation).
        self.settlement: TickSettlement | None = None
        self._ev_transition_tick: int | None = None
        self._ev_downtime_charged_to = 0

        self._start_incarnation()

    # ------------------------------------------------------------- properties

    @property
    def live(self) -> bool:
        """Whether the node's server process is running this tick."""
        return self.state in (NodeState.ACTIVE, NodeState.DRAINING)

    @property
    def accepting(self) -> bool:
        """Whether the load balancer may send this node new requests."""
        return self.state is NodeState.ACTIVE

    @property
    def planned_transition(self) -> bool:
        """Draining or sitting out a *planned* restart (not crash recovery).

        The rolling coordinator's concurrency budget counts only these:
        crash recovery is involuntary and must not block rejuvenating the
        remaining alarmed nodes (the capacity floor still accounts for it).
        """
        if self.state is NodeState.DRAINING:
            return True
        return self.state is NodeState.RESTARTING and self._downtime_planned

    @property
    def current_uptime_seconds(self) -> float:
        """Uptime of the current incarnation (0 while restarting)."""
        if not self.live or self.simulation is None:
            return 0.0
        return self.simulation.clock.now

    @property
    def open_connections(self) -> int:
        """Open HTTP connections of the current incarnation (0 when down)."""
        if not self.live or self.simulation is None:
            return 0
        return self.simulation.server.http_connections

    @property
    def predicted_ttf_seconds(self) -> float | None:
        """Latest on-line time-to-failure forecast (``None`` when unknown)."""
        if not self.live or self.latest_prediction is None:
            return None
        return self.latest_prediction.predicted_ttf_seconds

    @property
    def alarm(self) -> bool:
        """Whether this incarnation's monitor has raised its rejuvenation alarm."""
        return self.live and self.monitor is not None and self.monitor.alarm_raised

    @property
    def uptime_seconds(self) -> float:
        """Seconds the node has been up over its whole life.

        Finished incarnations plus the live one's clock, which has advanced
        one second for every tick the incarnation has been up.
        """
        simulation = self.simulation
        if simulation is None:
            return self._finished_uptime_seconds
        return self._finished_uptime_seconds + simulation.clock.now

    @property
    def downtime_seconds(self) -> float:
        return self.planned_downtime_seconds + self.unplanned_downtime_seconds

    @property
    def availability(self) -> float:
        """Fraction of the node's elapsed time it was up."""
        total = self.uptime_seconds + self.downtime_seconds
        if total <= 0:
            return 0.0
        return self.uptime_seconds / total

    # -------------------------------------------------------------- lifecycle

    def _start_incarnation(self, base_tick: int = 0) -> None:
        incarnation = self._incarnation_index
        incarnation_seed = self.seed + _INCARNATION_SEED_STRIDE * incarnation
        self._incarnation_index += 1
        # The node's own workload generator is never ticked (the cluster
        # engine routes the fleet-level workload), so one browser suffices.
        self.simulation = TestbedSimulation(
            config=self.config,
            workload_ebs=1,
            injectors=list(self.injector_factory(incarnation_seed)),
            seed=incarnation_seed,
            telemetry_label=f"n{self.node_id}i{incarnation}",
        )
        trace = self.simulation.begin()
        trace.metadata["node_id"] = self.node_id
        trace.metadata["incarnation"] = self._incarnation_index - 1
        self.incarnations.append(trace)
        self.monitor = None
        if self.managed_monitor is not None:
            # The managed monitor outlives the incarnation: reset clears the
            # stream state (features, drift evidence, alarm) but the current
            # champion -- including any promotions won before the restart --
            # stays deployed.
            self.managed_monitor.reset()
            self.monitor = self.managed_monitor
        elif self.predictor is not None:
            self.monitor = OnlineAgingMonitor(
                self.predictor,
                alarm_threshold_seconds=self.alarm_threshold_seconds,
                alarm_consecutive=self.alarm_consecutive,
            )
        self.latest_prediction = None
        self._bump_forecast()
        self.state = NodeState.ACTIVE
        self._tel_event("node_up", incarnation=incarnation)
        # Fresh shared-scheduler settlement for the incarnation; the hottest
        # entry points are aliased straight onto the node so the engine pays
        # no extra indirection per routed request.
        self.settlement = TickSettlement(self.simulation, base_tick=base_tick)
        self.ev_serve_begin = self.settlement.serve_begin
        self.ev_note_request = self.settlement.note_request
        self.ev_sync_begin = self.settlement.sync_begin
        self.ev_settle_open = self.settlement.settle_open

    def advance_tick(self) -> bool:
        """Advance the node's lifecycle by one cluster tick.

        Returns whether the node is live (and had its simulation's tick
        begun) for this tick.  Down nodes sit out their remaining downtime
        and rejoin automatically with a fresh incarnation.  A per-tick
        primitive of the reference loop (see the module docstring).
        """
        if self.state is NodeState.RESTARTING:
            if self._downtime_remaining > 0:
                self._downtime_remaining -= TICK_SECONDS
                if self._downtime_planned:
                    self.planned_downtime_seconds += TICK_SECONDS
                else:
                    self.unplanned_downtime_seconds += TICK_SECONDS
                return False
            self._start_incarnation()
        elif self.state is NodeState.DRAINING:
            if self._drain_remaining <= 0:
                self._enter_restart(planned=True)
                return self.advance_tick()
            self._drain_remaining -= TICK_SECONDS

        assert self.simulation is not None
        self.simulation.begin_tick()
        return True

    def begin_drain(self) -> None:
        """Take the node out of rotation ahead of a planned restart."""
        if self.state is not NodeState.ACTIVE:
            raise RuntimeError(f"only an ACTIVE node can start draining (node is {self.state.value})")
        self.state = NodeState.DRAINING
        self._drain_remaining = self.drain_seconds
        self._tel_event("drain_begin")

    def _bump_forecast(self) -> None:
        """Signal that the TTF forecast can have changed.

        Bumps the node's own ``forecast_version`` and, in lockstep, the
        fleet-shared :class:`RoutingEpoch` the routing policy's fast path
        keys on.  Every forecast transition must go through here -- a missed
        epoch bump would let the policy keep routing on a stale regime.
        """
        self.forecast_version += 1
        if self.routing_epoch is not None:
            self.routing_epoch.version += 1

    def _tel_event(self, kind: str, **data: object) -> None:
        """Record one node-lifecycle event on the sim channel (fleet ticks)."""
        telemetry = self.telemetry
        if telemetry is None:
            return
        tick = self._fleet_clock.ticks if self._fleet_clock is not None else 0
        telemetry.event(kind, tick, run=self._telemetry_run, data=data)

    def _enter_restart(self, planned: bool) -> None:
        if self.telemetry is not None and self.simulation is not None:
            self.simulation._telemetry_finish()
        if self.managed_monitor is not None and self.incarnations:
            # The finished incarnation is this monitor's outcome: a crashed
            # trace carries the true labels future challengers train on.
            self.managed_monitor.note_outcome(self.incarnations[-1])
        self.state = NodeState.RESTARTING
        self._downtime_planned = planned
        if planned:
            self.rejuvenations += 1
            self._downtime_remaining = self.rejuvenation_downtime_seconds
        else:
            self.crashes += 1
            self._downtime_remaining = self.crash_downtime_seconds
        self._tel_event(
            "restart_begin", planned=planned, downtime=self._downtime_remaining
        )
        self._finished_uptime_seconds += self.simulation.clock.now
        self.simulation = None
        self.monitor = None
        self.latest_prediction = None
        self._bump_forecast()
        # Release the dead incarnation's settlement too: it (and the aliased
        # bound methods) would otherwise pin the whole retired simulation for
        # the downtime.  Every event-path caller guards on live/ACTIVE state.
        self.settlement = None
        del self.ev_serve_begin, self.ev_note_request, self.ev_sync_begin, self.ev_settle_open

    # ------------------------------------------------------------------ serve

    def serve(self, interaction: Interaction):
        """Serve one routed request (propagates ``ServerCrash``)."""
        assert self.simulation is not None
        outcome = self.simulation.serve(interaction)
        self.requests_served += 1
        return outcome

    def drive_injectors(self) -> None:
        """Run this tick's fault injections (propagates ``ServerCrash``)."""
        assert self.simulation is not None
        self.simulation.drive_injectors(self.simulation.clock.now)

    def record_crash(self, crash: ServerCrash) -> None:
        """Mark the current incarnation as crashed and start crash recovery."""
        assert self.simulation is not None
        self.simulation.record_crash(self.simulation.clock.now, crash)
        self._enter_restart(planned=False)

    def end_tick(self, requests_completed: int, assigned_ebs: int) -> MonitoringSample | None:
        """Close the node's tick: OS update, sampling and on-line prediction."""
        assert self.simulation is not None
        sample = self.simulation.end_tick(
            self.simulation.clock.now,
            requests_completed,
            workload_ebs=assigned_ebs,
        )
        if sample is not None and self.monitor is not None:
            self._observe_sample(sample)
        return sample

    def _observe_sample(self, sample: MonitoringSample) -> None:
        """Stream one mark through the monitor; refresh forecast telemetry."""
        monitor = self.monitor
        alarmed_before = monitor.alarm_raised
        self.latest_prediction = monitor.observe(sample)
        self._bump_forecast()
        if self.telemetry is not None:
            self.telemetry.count("forecast_refreshes")
            if monitor.alarm_raised and not alarmed_before:
                prediction = self.latest_prediction
                self._tel_event(
                    "alarm",
                    predicted_ttf=(
                        prediction.predicted_ttf_seconds if prediction is not None else None
                    ),
                )

    def status_dict(self) -> dict:
        """Read-only canonical status snapshot (service API / dashboards).

        Observer-safe by construction: nothing here settles lazy state, so a
        poll can never perturb a running simulation.  On the event-driven
        engine the lazily-charged ``uptime_seconds`` / downtime fields can
        therefore lag the boundary by up to one monitoring interval; the
        lifecycle fields (state, alarm, forecast, counters) are always
        current.  Values are JSON-safe: finite floats, ints, strings, bools
        or ``None``.
        """
        return {
            "node_id": self.node_id,
            "state": self.state.value,
            "live": self.live,
            "accepting": self.accepting,
            "alarm": self.alarm,
            "incarnation": self._incarnation_index - 1,
            "current_uptime_seconds": self.current_uptime_seconds,
            "predicted_ttf_seconds": self.predicted_ttf_seconds,
            "uptime_seconds": self.uptime_seconds,
            "planned_downtime_seconds": self.planned_downtime_seconds,
            "unplanned_downtime_seconds": self.unplanned_downtime_seconds,
            "availability": self.availability,
            "crashes": self.crashes,
            "rejuvenations": self.rejuvenations,
            "requests_served": self.requests_served,
        }

    def describe(self) -> str:
        return (
            f"node {self.node_id}: {self.state.value}, availability {self.availability:.4f}, "
            f"{self.crashes} crashes, {self.rejuvenations} rejuvenations, "
            f"{self.requests_served} requests served"
        )

    # ------------------------------------------------ event-driven fast path
    #
    # Settlement (lite begins, segments, batched OS replay, fused marks) is
    # the shared scheduler's job -- see repro.testbed.events.TickSettlement,
    # whose hottest methods are aliased onto the node in _start_incarnation.
    # What remains here is the lifecycle the settlement cannot know about:
    # downtime charged lazily per down tick and the drain/restart
    # transitions resolved into absolute ticks with the exact countdown
    # helpers of repro.testbed.timeline.

    @property
    def ev_incarnation_begun_tick(self) -> int:
        """Cluster tick at which the current incarnation's clock was zero."""
        assert self.settlement is not None
        return self.settlement.base_tick

    @property
    def ev_mark_interval_ticks(self) -> int:
        """Monitoring cadence in whole ticks."""
        assert self.settlement is not None
        return self.settlement.mark_interval_ticks

    @property
    def ev_transition_tick(self) -> int | None:
        """Scheduled lifecycle transition: drain expiry or restart completion."""
        return self._ev_transition_tick

    def ev_next_mark_tick(self) -> int | None:
        """Estimated cluster tick of the next monitoring mark (live nodes)."""
        if not self.live or self.settlement is None:
            return None
        return self.settlement.next_mark_tick()

    def ev_next_injector_wake(self, floor_tick: int) -> int | None:
        """Earliest cluster tick at which this node's injectors need driving."""
        if not self.live or self.settlement is None:
            return None
        return self.settlement.next_injector_wake(floor_tick)

    def ev_mark(self, j: int, assigned_ebs: int) -> MonitoringSample | None:
        """Take tick ``j``'s monitoring mark and stream it to the monitor.

        Returns ``None`` when the wake-up was scheduled conservatively early
        (no sample due yet).
        """
        assert self.settlement is not None
        sample = self.settlement.mark(j, assigned_ebs)
        if sample is not None and self.monitor is not None:
            self._observe_sample(sample)
        return sample

    def ev_begin_drain(self, j: int) -> int:
        """Start draining at tick ``j``; return the drain-expiry transition tick.

        Mirrors the reference countdown: ``advance_tick`` checks the drain
        budget *before* decrementing it, so the node keeps running for
        ``ticks_until_nonpositive(drain_seconds)`` ticks after ``j`` and
        enters its planned restart on the tick after those.
        """
        self.begin_drain()
        draining_ticks = ticks_until_nonpositive(self.drain_seconds)
        self._ev_transition_tick = j + draining_ticks + 1
        return self._ev_transition_tick

    def ev_record_crash(self, j: int, crash: ServerCrash) -> int:
        """Record a crash at tick ``j``; return the tick the node is live again.

        The crash tick's own end-of-tick update dies with the incarnation
        (the reference engine never runs ``end_tick`` for a crashed node),
        but everything before it settles first so the crash is stamped at
        the exact simulation time the reference engine would use.
        """
        settlement = self.settlement
        assert settlement is not None
        # Crashes surface while serving or driving injectors, so tick j is
        # the open tick; discard its deferred update before settling.
        settlement.discard_open()
        settlement.replay_os_to(j - 1)
        settlement.advance_clock_to(j)
        self.record_crash(crash)
        down_ticks = ticks_until_nonpositive(self._downtime_remaining)
        self._ev_downtime_charged_to = j  # first charged tick is j + 1
        self._ev_transition_tick = j + 1 + down_ticks
        return self._ev_transition_tick

    def ev_record_crash_at_boundary(self, j: int, crash: ServerCrash) -> int:
        """Record an operator-initiated crash *between* ticks ``j`` and ``j+1``.

        Unlike :meth:`ev_record_crash` (a crash surfacing mid-tick while
        serving), the boundary kill lets tick ``j`` settle normally first --
        the reference engine ran its ``end_tick`` -- and the process dies
        before tick ``j+1`` begins: downtime is charged from ``j+1`` and the
        node is live again at the returned tick.
        """
        settlement = self.settlement
        assert settlement is not None
        settlement.settle_through(j)
        self.record_crash(crash)
        down_ticks = ticks_until_nonpositive(self._downtime_remaining)
        self._ev_downtime_charged_to = j  # first charged tick is j + 1
        self._ev_transition_tick = j + 1 + down_ticks
        return self._ev_transition_tick

    def ev_apply_transition(self, j: int) -> bool:
        """Apply the lifecycle transition scheduled for tick ``j``.

        Returns ``True`` when the node rejoined the fleet (restart complete);
        ``False`` for the intermediate drain-expiry transition, which leaves
        the node down and schedules the restart-completion transition.
        """
        assert self._ev_transition_tick == j
        if self.state is NodeState.DRAINING:
            # Reference: advance_tick at j sees the drain budget exhausted,
            # enters the planned restart and immediately charges tick j as
            # the first downtime tick (the recursive advance_tick call).
            assert self.settlement is not None
            self.settlement.settle_through(j - 1)
            self._enter_restart(planned=True)
            down_ticks = ticks_until_nonpositive(self._downtime_remaining)
            self._ev_downtime_charged_to = j - 1  # first charged tick is j itself
            self._ev_transition_tick = j + down_ticks
            return False
        assert self.state is NodeState.RESTARTING
        self.ev_charge_downtime_to(j - 1)
        self._start_incarnation(base_tick=j - 1)
        self._ev_transition_tick = None
        return True

    def ev_charge_downtime_to(self, j: int) -> None:
        """Charge the downtime of a RESTARTING node through tick ``j``."""
        assert self.state is NodeState.RESTARTING
        if self._ev_transition_tick is not None:
            j = min(j, self._ev_transition_tick - 1)
        ticks = j - self._ev_downtime_charged_to
        if ticks <= 0:
            return
        # Bit-for-bit ``ticks`` one-second steps (see repro.testbed.timeline).
        self._downtime_remaining -= ticks
        if self._downtime_planned:
            self.planned_downtime_seconds += ticks
        else:
            self.unplanned_downtime_seconds += ticks
        self._ev_downtime_charged_to = j

    def ev_flush(self, final_tick: int) -> None:
        """Settle all lazy accounting through the end of the run."""
        if self.live:
            assert self.settlement is not None
            self.settlement.settle_through(final_tick)
        else:
            self.ev_charge_downtime_to(final_tick)
