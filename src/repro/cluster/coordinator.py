"""Fleet-level rejuvenation coordination.

A single server's rejuvenation policy answers "should *this* server
restart now?".  At fleet scale the question becomes "which servers may
restart *now* without hurting the service?", and the
difference between answering it and not answering it is exactly what the
cluster experiment measures:

``NoClusterRejuvenation``
    The baseline: every node runs to its crash.
``UncoordinatedTimeBasedRejuvenation``
    Every node independently applies the classic fixed-uptime restart rule.
    Nothing synchronises them -- and because a freshly started fleet is
    implicitly synchronised, all nodes reach the interval together and
    restart together, taking the whole service down at once.
``RollingPredictiveRejuvenation``
    The subsystem's centrepiece: nodes whose on-line M5P forecast has raised
    the rejuvenation alarm are drained and restarted one batch at a time,
    never letting the number of serving nodes drop below the configured
    minimum capacity.  Predictive triggering avoids both needless restarts
    and crashes; coordination turns the per-node downtime into a capacity
    dip instead of an outage.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Sequence

from repro.cluster.node import NodeState
from repro.telemetry.hub import ENGINE
from repro.testbed.timeline import first_tick_at_or_after

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode
    from repro.telemetry.hub import Telemetry

__all__ = [
    "ClusterRejuvenationCoordinator",
    "NoClusterRejuvenation",
    "UncoordinatedTimeBasedRejuvenation",
    "RollingPredictiveRejuvenation",
]


class ClusterRejuvenationCoordinator(abc.ABC):
    """Decides, tick by tick, which nodes start draining for a restart.

    The per-second reference loop of the test suite calls :meth:`decide`
    every tick.  The event-driven engine calls it only at ticks where its inputs can have changed -- a
    lifecycle transition, a crash, or a fresh monitoring sample -- plus the
    ticks :meth:`next_decision_tick` announces.  A coordinator is therefore
    *event stable*: between such ticks its decision must stay empty.  All
    three built-in coordinators are; a coordinator that reacts to the mere
    passage of time (like the fixed-uptime baseline) must announce its next
    trigger through :meth:`next_decision_tick`.
    """

    #: Whether :meth:`decide` reads per-node uptime clocks.  The event-driven
    #: engine leaves untouched nodes' clocks unsynchronised between events,
    #: so a coordinator reading them forces a fleet-wide synchronisation at
    #: each decision tick.
    reads_node_uptime: bool = False

    #: Telemetry hub the cluster engine injects when tracing is active.
    #: Coordinator counters live on the ``engine`` channel: the event engine
    #: and the per-second reference call :meth:`decide` at different tick sets, so the counts are
    #: engine-specific diagnostics, not part of the sim-channel contract.
    telemetry: "Telemetry | None" = None

    @abc.abstractmethod
    def decide(self, now_seconds: float, nodes: Sequence["ClusterNode"]) -> list["ClusterNode"]:
        """Return the nodes that should begin draining at ``now_seconds``."""

    def next_decision_tick(self, now_tick: int, nodes: Sequence["ClusterNode"]) -> int | None:
        """Earliest future tick at which the decision may change on its own.

        ``None`` means the coordinator only reacts to fleet events (the
        default).  Implementations must make the whole-second comparisons of
        the simulation clocks so the announced tick matches the tick a
        per-second loop would trigger on.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


class NoClusterRejuvenation(ClusterRejuvenationCoordinator):
    """Never restart anything: nodes run until they crash."""

    def decide(self, now_seconds: float, nodes: Sequence["ClusterNode"]) -> list["ClusterNode"]:
        return []


class UncoordinatedTimeBasedRejuvenation(ClusterRejuvenationCoordinator):
    """Each node independently restarts after a fixed uptime.

    This is the classic single-server time-based rule applied with no fleet
    awareness: a node that reaches ``interval_seconds`` of uptime drains
    immediately, regardless of how many of its peers are already down.
    """

    reads_node_uptime = True

    def __init__(self, interval_seconds: float) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = float(interval_seconds)

    def decide(self, now_seconds: float, nodes: Sequence["ClusterNode"]) -> list["ClusterNode"]:
        return [
            node
            for node in nodes
            if node.state is NodeState.ACTIVE and node.current_uptime_seconds >= self.interval_seconds
        ]

    def next_decision_tick(self, now_tick: int, nodes: Sequence["ClusterNode"]) -> int | None:
        """The earliest tick at which an active node's uptime crosses the interval.

        A node's uptime at cluster tick ``k`` is exactly
        ``k - incarnation_begun`` seconds -- what its simulation clock
        reads -- so the crossing tick found with that comparison is the tick
        :meth:`decide` first triggers on.
        """
        earliest: int | None = None
        for node in nodes:
            if node.state is not NodeState.ACTIVE:
                continue
            base = node.ev_incarnation_begun_tick
            k = max(base + first_tick_at_or_after(self.interval_seconds), now_tick + 1)
            if earliest is None or k < earliest:
                earliest = k
        return earliest

    def describe(self) -> str:
        return f"UncoordinatedTimeBasedRejuvenation(every {self.interval_seconds:.0f}s of uptime)"


class RollingPredictiveRejuvenation(ClusterRejuvenationCoordinator):
    """Rolling restarts of alarmed nodes under a fleet capacity floor.

    Parameters
    ----------
    max_concurrent_restarts:
        Upper bound on nodes simultaneously draining or sitting out a
        *planned* restart.  Nodes in unplanned crash recovery do not consume
        this budget -- otherwise one crash would veto rejuvenating the
        remaining alarmed nodes for its whole recovery time, turning one
        crash into a cascade -- but they do count against the capacity
        floor below.
    min_active_fraction:
        Fraction of the fleet that must stay in the ``ACTIVE`` state; a node
        is only released for draining while the floor holds afterwards.
        The floor is computed as ``ceil(min_active_fraction * len(nodes))``.
    """

    def __init__(self, max_concurrent_restarts: int = 1, min_active_fraction: float = 0.5) -> None:
        if max_concurrent_restarts < 1:
            raise ValueError("max_concurrent_restarts must be at least 1")
        if not 0.0 <= min_active_fraction < 1.0:
            raise ValueError("min_active_fraction must be in [0, 1)")
        self.max_concurrent_restarts = max_concurrent_restarts
        self.min_active_fraction = float(min_active_fraction)

    def min_active_nodes(self, fleet_size: int) -> int:
        """Capacity floor for a fleet of ``fleet_size`` nodes."""
        return int(math.ceil(self.min_active_fraction * fleet_size))

    def decide(self, now_seconds: float, nodes: Sequence["ClusterNode"]) -> list["ClusterNode"]:
        budget = self.max_concurrent_restarts - sum(1 for node in nodes if node.planned_transition)
        if budget <= 0:
            return []
        floor = self.min_active_nodes(len(nodes))
        active = sum(1 for node in nodes if node.state is NodeState.ACTIVE)
        # Most urgent first: the node forecast to crash soonest drains first.
        alarmed = sorted(
            (node for node in nodes if node.state is NodeState.ACTIVE and node.alarm),
            key=lambda node: (
                node.predicted_ttf_seconds if node.predicted_ttf_seconds is not None else float("inf"),
                node.node_id,
            ),
        )
        chosen: list["ClusterNode"] = []
        deferred = 0
        for index, node in enumerate(alarmed):
            if budget <= 0 or active - 1 < floor:
                deferred = len(alarmed) - index
                break
            chosen.append(node)
            budget -= 1
            active -= 1
        if deferred and self.telemetry is not None:
            reason = "budget" if budget <= 0 else "floor"
            self.telemetry.count(f"coordinator.{reason}_deferrals", deferred, channel=ENGINE)
        return chosen

    def describe(self) -> str:
        return (
            f"RollingPredictiveRejuvenation(max {self.max_concurrent_restarts} concurrent, "
            f"min active {self.min_active_fraction:.0%})"
        )
