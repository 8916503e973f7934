"""Fluid cluster engine: whole-fleet mask updates behind the exact contract.

``FluidClusterEngine`` is a :class:`~repro.cluster.engine.FleetEngine`, like
the exact :class:`~repro.cluster.engine.ClusterEngine`: the two tiers share
one front end (constructor checks, ``run``/``step``/``finish``, the
``mutate_*`` commands, ``fleet_snapshot``, ``FleetStatus.outcome`` and the
end-of-run telemetry), take the same constructor keywords and the same
coordinator / routing-policy objects, and differ only in how a tick
advances.  This tier replaces every per-browser and per-node Python loop
with per-tick numpy array operations over the entire fleet:

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
and uptime-per-crash against the exact engine on overlapping scales.
Determinism contract: seeded runs are byte-identical across repeats and
worker settings (one ``PCG64`` stream consumed in fixed per-tick order), but
the stream is tier-specific: telemetry digests of fluid runs are stable yet
deliberately *not* comparable to the exact engine's digests.

Unsupported pieces fail loudly instead of approximating silently: custom
routing policies, custom coordinators, lifecycle-managed monitors
(``monitor_factory``) and non-paper fault injectors all raise ``ValueError``
pointing back at the exact tier.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.coordinator import (
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.engine import FleetEngine
from repro.cluster.node import NodeState
from repro.cluster.routing import AgingAwareRouting, LeastConnectionsRouting, RoundRobinRouting
from repro.cluster.status import NodeOutcome
from repro.core.features import RAW_VARIABLES, FeatureBank
from repro.testbed.clock import TICK_SECONDS
from repro.testbed.errors import ServerCrash
from repro.testbed.fluid import FluidFleet, leak_rates_from_injectors, mix_stats
from repro.testbed.timeline import first_tick_at_or_after

__all__ = ["FluidClusterEngine"]

#: Node lifecycle states as int8 mask values, indexing ``_NODE_STATES``.
_ACTIVE, _DRAINING, _RESTARTING = 0, 1, 2
_NODE_STATES = (NodeState.ACTIVE, NodeState.DRAINING, NodeState.RESTARTING)

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


class FluidClusterEngine(FleetEngine):
    """Aggregate (mean-field) fleet engine; see the module docstring.

    It shares the :class:`~repro.cluster.engine.FleetEngine` front end and
    constructor keywords with the exact
    :class:`~repro.cluster.engine.ClusterEngine`, so
    :func:`repro.experiments.cluster.run_cluster_policy` can swap engines
    behind one scenario description.  Only its checks and array state
    (:meth:`_build`), the tick advance (:meth:`_run_tick`), the per-node
    reads and the mutation apply hooks below are its own.
    """

    _run_tags = {"tier": "fluid"}
    _per_node_gauge_cap = _PER_NODE_GAUGE_CAP

    def _build(self) -> None:
        if self.monitor_factory is not None:
            raise ValueError(
                "fluid tier does not support lifecycle-managed monitors "
                "(monitor_factory / lifecycle=true); use engine='event'"
            )
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
                "use the exact engine='event'"
            )
        if not isinstance(
            self.coordinator,
            (NoClusterRejuvenation, UncoordinatedTimeBasedRejuvenation, RollingPredictiveRejuvenation),
        ):
            raise ValueError(
                f"fluid tier has no closed form for coordinator {type(self.coordinator).__name__}; "
                "use the exact engine='event'"
            )

        n = self.num_nodes
        configs = self.node_configs if self.node_configs is not None else [self.config] * n
        self._mix_stats = mix_stats(self.mix)
        self.fleet = FluidFleet(configs, [self._leak_rates(node_id) for node_id in range(n)], self.mix)

        # Everything the per-tick body touches lives on the instance, so the
        # run can pause at any tick boundary and resume (or be mutated, or
        # read) without replaying.  The single ``PCG64`` stream is consumed
        # in a fixed per-tick order, which makes any chunking of ``step``
        # calls byte-identical to one batch run.
        self._mark_ticks = max(1, first_tick_at_or_after(self.config.monitoring_interval_s))
        self._drain_ticks = max(1, first_tick_at_or_after(self.drain_seconds))
        self._rejuvenation_ticks = max(1, first_tick_at_or_after(self.rejuvenation_downtime_seconds))
        self._crash_ticks = max(1, first_tick_at_or_after(self.crash_downtime_seconds))
        self._rng = np.random.Generator(np.random.PCG64(self.seed))
        self._ids = np.arange(n)

        self._time_based = (
            self.coordinator if isinstance(self.coordinator, UncoordinatedTimeBasedRejuvenation) else None
        )
        self._rolling = (
            self.coordinator if isinstance(self.coordinator, RollingPredictiveRejuvenation) else None
        )
        self._interval_ticks = (
            max(1, first_tick_at_or_after(self._time_based.interval_seconds))
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

    def _leak_rates(self, node_id: int):
        """Closed-form leak rates of ``node_id``'s injectors, overrides applied."""
        injectors = self._node_injector_factory(node_id)(self._node_seed(node_id))
        return leak_rates_from_injectors(injectors, self._mix_stats)

    def _refresh_outage_rate(self) -> None:
        think = self.config.mean_think_time_s
        self._outage_rate = self.total_ebs / (think + self.dropped_request_penalty_s)

    # -------------------------------------------------------------- per tick

    def _advance(self, target: int) -> None:
        for tick_index in range(self._current_tick + 1, target + 1):
            self._run_tick(tick_index)

    def _run_tick(self, tick_index: int) -> None:
        n = self.num_nodes
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
        lam = self.fleet.arrival_rate(allocation.astype(float))
        arrivals = rng.poisson(lam).astype(float)
        if not (state == _ACTIVE).any():
            dropped = int(rng.poisson(self._outage_rate))
        else:
            dropped = 0

        # ----- physics settlement and crash masks
        crashed = self.fleet.step(live, arrivals)
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
                raw = self.fleet.sample_fields(marking, float(self._mark_ticks), allocation)
                if bank is not None and self.predictor is not None:
                    due_idx = ids[marking]
                    rows = bank.push(
                        due_idx,
                        float(tick_index),
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
                self.fleet.sample_fields(marking, float(self._mark_ticks), allocation)
                next_mark[marking] += self._mark_ticks

        # ----- accounting
        active_count = int((state == _ACTIVE).sum())
        self.status.record_tick(active_count, served_tick, dropped)
        self._uptime[live] += TICK_SECONDS
        down = ~live
        self._planned_down[down & planned] += TICK_SECONDS
        self._unplanned_down[down & ~planned] += TICK_SECONDS

    # ------------------------------------------------------------- mutations
    #
    # The fluid tier applies boundary mutations to its masks and rate arrays
    # directly; the RNG stream is untouched, so a replayed command log
    # reproduces the run byte-for-byte.

    def _apply_load(self, total_ebs: int) -> None:
        self._refresh_outage_rate()
        self._allocation_dirty = True

    def _apply_kill(self, node_id: int, crash: ServerCrash) -> None:
        j = self._current_tick
        self._crashes[node_id] += 1
        self._state[node_id] = _RESTARTING
        self._planned[node_id] = False
        self._transition_tick[node_id] = j + 1 + self._crash_ticks
        self._emit_lifecycle("node_crash", j, self._ids == node_id)
        self._allocation_dirty = self._decision_dirty = True

    def _apply_rejuvenate(self, node_id: int) -> None:
        j = self._current_tick
        self._state[node_id] = _DRAINING
        self._planned[node_id] = True
        self._transition_tick[node_id] = j + 1 + self._drain_ticks
        self._emit_lifecycle("drain_begin", j, self._ids == node_id)
        self._allocation_dirty = True

    def _apply_leak_rates(self, node_id: int, overrides: dict) -> None:
        """Recompute the node's closed-form rates from its cumulative overrides.

        Future incarnations inherit the same rates (the fluid tier has no
        per-incarnation injectors to rebuild).
        """
        rates = self._leak_rates(node_id)
        self.fleet.mem_rate[node_id] = rates.leaked_mb_per_request
        self.fleet.thread_rate[node_id] = rates.threads_per_second
        self.fleet.leak_quantum[node_id] = rates.leak_quantum_mb

    # ------------------------------------------------------------ node reads

    def _node_state(self, node_id: int) -> NodeState:
        return _NODE_STATES[int(self._state[node_id])]

    def _node_counts(self) -> tuple[int, int]:
        return int((self._state == _ACTIVE).sum()), int((self._state != _RESTARTING).sum())

    def _node_outcomes(self) -> list[NodeOutcome]:
        return [
            NodeOutcome(
                node_id=node_id,
                uptime_seconds=float(self._uptime[node_id]),
                planned_downtime_seconds=float(self._planned_down[node_id]),
                unplanned_downtime_seconds=float(self._unplanned_down[node_id]),
                crashes=int(self._crashes[node_id]),
                rejuvenations=int(self._rejuvenations[node_id]),
                requests_served=int(self._served_node[node_id]),
            )
            for node_id in range(self.num_nodes)
        ]

    def node_snapshots(self) -> list[dict]:
        """Read-only per-node status dicts (same keys as ``ClusterNode.status_dict``)."""
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
                        float(self._current_tick - int(self._incarnation_tick[node_id]))
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

    # ------------------------------------------------------------ telemetry

    def _emit_lifecycle(self, kind: str, tick_index: int, mask: np.ndarray) -> None:
        """One sim-channel event per affected node (bounded by lifecycle churn)."""
        if self.telemetry is None:
            return
        for node_id in np.flatnonzero(mask):
            self.telemetry.event(kind, tick_index, run=f"n{node_id}", data={"tier": "fluid"})
