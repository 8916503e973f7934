"""Fleet-level status aggregation: capacity, availability and outage accounting.

``FleetStatus`` is the cluster's accountant: the engine reports every tick's
serving capacity and request counts, and the aggregator folds them into the
quantities a service-status dashboard would show -- capacity-weighted
availability, full-outage and degraded-capacity seconds, the worst observed
capacity, and request success rates.  ``outcome()`` freezes everything into a
:class:`ClusterOutcome`, with one :class:`NodeOutcome` per server.

Availability here is *capacity weighted*: a 3-node fleet running 2 nodes for
an hour banked 2/3 of an hour of availability.  This is the natural extension
of the single-server uptime fraction and makes "one node restarting" visibly
cheaper than "everything restarting at once" -- the whole argument for
coordinated rolling rejuvenation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.telemetry.sinks import canonical_json

__all__ = ["NodeOutcome", "ClusterOutcome", "FleetStatus"]


def _finite(value: float, field: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{field} must be finite for a canonical snapshot (got {value!r})")
    return float(value)


@dataclass(frozen=True)
class NodeOutcome:
    """Per-node summary of a cluster run."""

    node_id: int
    uptime_seconds: float
    planned_downtime_seconds: float
    unplanned_downtime_seconds: float
    crashes: int
    rejuvenations: int
    requests_served: int

    @property
    def availability(self) -> float:
        """Fraction of the node's elapsed time it was up (0.0 when none elapsed)."""
        total = self.uptime_seconds + (self.planned_downtime_seconds + self.unplanned_downtime_seconds)
        if total <= 0:
            return 0.0
        return self.uptime_seconds / total

    def to_dict(self) -> dict:
        """Canonical JSON-safe view (finite floats, ints; no NaN)."""
        return {
            "node_id": self.node_id,
            "uptime_seconds": _finite(self.uptime_seconds, "uptime_seconds"),
            "planned_downtime_seconds": _finite(
                self.planned_downtime_seconds, "planned_downtime_seconds"
            ),
            "unplanned_downtime_seconds": _finite(
                self.unplanned_downtime_seconds, "unplanned_downtime_seconds"
            ),
            "crashes": self.crashes,
            "rejuvenations": self.rejuvenations,
            "requests_served": self.requests_served,
            "availability": _finite(self.availability, "availability"),
        }


@dataclass(frozen=True)
class ClusterOutcome:
    """Aggregate result of operating one cluster configuration for a horizon."""

    routing_description: str
    coordinator_description: str
    num_nodes: int
    horizon_seconds: float
    capacity_node_seconds: float
    full_outage_seconds: float
    degraded_seconds: float
    min_active_nodes: int
    served_requests: int
    dropped_requests: int
    crashes: int
    rejuvenations: int
    planned_downtime_seconds: float
    unplanned_downtime_seconds: float
    per_node: tuple[NodeOutcome, ...]

    @property
    def availability(self) -> float:
        """Capacity-weighted fleet availability over the horizon."""
        total = self.num_nodes * self.horizon_seconds
        if total <= 0:
            return 0.0
        return self.capacity_node_seconds / total

    @property
    def request_success_rate(self) -> float:
        """Fraction of issued requests that some node actually served."""
        total = self.served_requests + self.dropped_requests
        if total <= 0:
            return 1.0
        return self.served_requests / total

    @property
    def downtime_seconds(self) -> float:
        """Summed node downtime (planned plus unplanned) across the fleet."""
        return self.planned_downtime_seconds + self.unplanned_downtime_seconds

    def metrics(self) -> dict:
        """The flat scalar metrics of one policy run, in the envelope's order.

        These are exactly the per-policy keys the ``cluster`` registry
        adapter publishes into ``RunResult.metrics`` (and ``repro collect``
        aggregates); the adapter reuses this method so the two surfaces can
        never drift.
        """
        return {
            "availability": self.availability,
            "request_success_rate": self.request_success_rate,
            "full_outage_seconds": self.full_outage_seconds,
            "degraded_seconds": self.degraded_seconds,
            "min_active_nodes": self.min_active_nodes,
            "crashes": self.crashes,
            "rejuvenations": self.rejuvenations,
            "served_requests": self.served_requests,
            "dropped_requests": self.dropped_requests,
            "planned_downtime_seconds": self.planned_downtime_seconds,
            "unplanned_downtime_seconds": self.unplanned_downtime_seconds,
        }

    def to_dict(self) -> dict:
        """Canonical JSON-safe view of the whole outcome (sorted-key stable).

        Everything in the dataclass plus the derived properties, with the
        per-node breakdown nested under ``per_node``.  Serializing with
        :meth:`to_json` yields a byte-stable canonical document -- the unit
        the service's replay verification compares.
        """
        payload = {
            "routing_description": self.routing_description,
            "coordinator_description": self.coordinator_description,
            "num_nodes": self.num_nodes,
            "horizon_seconds": _finite(self.horizon_seconds, "horizon_seconds"),
            "capacity_node_seconds": _finite(self.capacity_node_seconds, "capacity_node_seconds"),
            "full_outage_seconds": _finite(self.full_outage_seconds, "full_outage_seconds"),
            "degraded_seconds": _finite(self.degraded_seconds, "degraded_seconds"),
            "min_active_nodes": self.min_active_nodes,
            "served_requests": self.served_requests,
            "dropped_requests": self.dropped_requests,
            "crashes": self.crashes,
            "rejuvenations": self.rejuvenations,
            "planned_downtime_seconds": _finite(
                self.planned_downtime_seconds, "planned_downtime_seconds"
            ),
            "unplanned_downtime_seconds": _finite(
                self.unplanned_downtime_seconds, "unplanned_downtime_seconds"
            ),
            "availability": _finite(self.availability, "availability"),
            "request_success_rate": _finite(self.request_success_rate, "request_success_rate"),
            "downtime_seconds": _finite(self.downtime_seconds, "downtime_seconds"),
            "per_node": [node.to_dict() for node in self.per_node],
        }
        return payload

    def to_json(self) -> str:
        """Canonical byte-stable JSON (sorted keys, no NaN; RunResult rules)."""
        return canonical_json(self.to_dict())

    def summary(self) -> str:
        return (
            f"{self.coordinator_description} + {self.routing_description}: "
            f"availability {self.availability:.4f}, "
            f"{self.crashes} crashes, {self.rejuvenations} rejuvenations, "
            f"full outage {self.full_outage_seconds:.0f}s, "
            f"degraded {self.degraded_seconds / 60.0:.1f} min, "
            f"min active {self.min_active_nodes}/{self.num_nodes}, "
            f"served {self.request_success_rate:.2%} of requests"
        )


class FleetStatus:
    """Tick-by-tick accumulator behind :class:`ClusterOutcome`."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one node")
        self.num_nodes = num_nodes
        self.horizon_seconds = 0.0
        self.capacity_node_seconds = 0.0
        self.full_outage_seconds = 0.0
        self.degraded_seconds = 0.0
        self.min_active_nodes = num_nodes
        self.served_requests = 0
        self.dropped_requests = 0

    def record_tick(self, active_nodes: int, served: int, dropped: int) -> None:
        """Fold one one-second cluster tick into the aggregates."""
        self.record_quiet_span(1, active_nodes)
        self.served_requests += served
        self.dropped_requests += dropped

    def record_quiet_span(self, ticks: int, active_nodes: int) -> None:
        """Fold ``ticks`` consecutive request-free ticks at constant capacity.

        The event-driven engine batches the spans between interesting events
        through here.  Every accumulator holds whole seconds, so one add of
        ``ticks`` is bit-for-bit ``ticks`` one-second adds, the per-tick
        accumulation of :meth:`record_tick`.
        """
        if ticks < 0:
            raise ValueError("ticks must be non-negative")
        if not 0 <= active_nodes <= self.num_nodes:
            raise ValueError(f"active_nodes must be within [0, {self.num_nodes}]")
        if ticks == 0:
            return
        self.horizon_seconds += ticks
        self.capacity_node_seconds += active_nodes * ticks
        if active_nodes == 0:
            self.full_outage_seconds += ticks
        elif active_nodes < self.num_nodes:
            self.degraded_seconds += ticks
        self.min_active_nodes = min(self.min_active_nodes, active_nodes)

    def snapshot_dict(self) -> dict:
        """Canonical JSON-safe view of the running aggregates (mid-run safe).

        The live analogue of :meth:`ClusterOutcome.to_dict`: exact at every
        engine step boundary, never mutating, and following the same
        conventions (finite floats, derived rates included).
        """
        total = self.num_nodes * self.horizon_seconds
        requests = self.served_requests + self.dropped_requests
        return {
            "num_nodes": self.num_nodes,
            "horizon_seconds": _finite(self.horizon_seconds, "horizon_seconds"),
            "capacity_node_seconds": _finite(self.capacity_node_seconds, "capacity_node_seconds"),
            "full_outage_seconds": _finite(self.full_outage_seconds, "full_outage_seconds"),
            "degraded_seconds": _finite(self.degraded_seconds, "degraded_seconds"),
            "min_active_nodes": self.min_active_nodes,
            "served_requests": self.served_requests,
            "dropped_requests": self.dropped_requests,
            "availability": (self.capacity_node_seconds / total) if total > 0 else 0.0,
            "request_success_rate": (self.served_requests / requests) if requests > 0 else 1.0,
        }

    def outcome(
        self,
        per_node: Sequence[NodeOutcome],
        routing_description: str,
        coordinator_description: str,
    ) -> ClusterOutcome:
        """Freeze the aggregates, plus the per-node rows a tier built, into an outcome."""
        per_node = tuple(per_node)
        return ClusterOutcome(
            routing_description=routing_description,
            coordinator_description=coordinator_description,
            num_nodes=self.num_nodes,
            horizon_seconds=self.horizon_seconds,
            capacity_node_seconds=self.capacity_node_seconds,
            full_outage_seconds=self.full_outage_seconds,
            degraded_seconds=self.degraded_seconds,
            min_active_nodes=self.min_active_nodes,
            served_requests=self.served_requests,
            dropped_requests=self.dropped_requests,
            crashes=sum(node.crashes for node in per_node),
            rejuvenations=sum(node.rejuvenations for node in per_node),
            planned_downtime_seconds=sum(node.planned_downtime_seconds for node in per_node),
            unplanned_downtime_seconds=sum(node.unplanned_downtime_seconds for node in per_node),
            per_node=per_node,
        )
