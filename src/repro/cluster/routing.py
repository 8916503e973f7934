"""Routing policies of the cluster load balancer.

A routing policy picks, request by request, which node of the fleet serves
the next TPC-W interaction.  Three strategies are provided:

``RoundRobinRouting``
    The classic baseline: cycle through the accepting nodes.
``LeastConnectionsRouting``
    Send the request to the node with the fewest open HTTP connections --
    the standard reactive load-balancing rule.
``AgingAwareRouting``
    The policy this subsystem exists for: it reads each node's on-line
    time-to-failure forecast (the paper's M5P predictor streamed through
    :class:`repro.core.online.OnlineAgingMonitor`) and sheds traffic away
    from nodes whose crash is forecast to be imminent.  Because the paper's
    memory-leak injection is *workload coupled* (leaks ride on search-servlet
    requests), shedding traffic genuinely slows a node's aging -- routing and
    rejuvenation become two levers of the same proactive-recovery loop.

Policies are deterministic: ``AgingAwareRouting`` uses smooth weighted
round-robin (the nginx algorithm) instead of random weighted sampling, so a
seeded cluster run is exactly reproducible.  Its frozen-weight regimes are
pinned bit for bit against the per-request scan the test suite keeps as its
reference (``tests/cluster/oracle.py``).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode

__all__ = [
    "RoutingPolicy",
    "RoutingEpoch",
    "RoundRobinRouting",
    "LeastConnectionsRouting",
    "AgingAwareRouting",
]


class RoutingEpoch:
    """Fleet-shared change counter that lets routing skip per-request checks.

    The cluster engine creates one epoch per fleet and hands it to every
    node; a node bumps :attr:`version` whenever anything that can move a
    routing decision changes (a forecast transition, a restart, a crash).
    A policy that has validated a candidate list once can then revalidate
    it with two integer comparisons -- ``candidates is last_list`` and
    ``epoch.version == last_version`` -- instead of walking the nodes.
    """

    __slots__ = ("version",)

    def __init__(self) -> None:
        self.version = 0


class RoutingPolicy(abc.ABC):
    """Chooses the node that serves the next request."""

    #: Whether :meth:`route`/:meth:`weights` read per-tick node state (open
    #: HTTP connections).  The event-driven engine keeps untouched nodes'
    #: per-tick counters unsynchronised between events, so a policy that
    #: reads them forces it to synchronise every accepting node on each
    #: request tick (correct, but slower).  Policies that rely only on
    #: membership and monitoring-mark state leave this ``False``.
    reads_tick_state: bool = False

    @abc.abstractmethod
    def route(self, candidates: Sequence["ClusterNode"]) -> "ClusterNode":
        """Pick one node from the non-empty sequence of accepting nodes."""

    def weights(self, candidates: Sequence["ClusterNode"]) -> list[float]:
        """Relative traffic shares of the candidates (used for EB accounting).

        The default is an even split; policies that bias traffic override
        this so the fleet-level workload bookkeeping matches the routing.
        """
        return [1.0] * len(candidates)

    def describe(self) -> str:
        return type(self).__name__


class RoundRobinRouting(RoutingPolicy):
    """Cycle through the accepting nodes in order."""

    def __init__(self) -> None:
        self._counter = 0

    def route(self, candidates: Sequence["ClusterNode"]) -> "ClusterNode":
        if not candidates:
            raise ValueError("cannot route a request with no accepting nodes")
        choice = candidates[self._counter % len(candidates)]
        self._counter += 1
        return choice


class LeastConnectionsRouting(RoutingPolicy):
    """Send each request to the node with the fewest open HTTP connections."""

    reads_tick_state = True

    def route(self, candidates: Sequence["ClusterNode"]) -> "ClusterNode":
        if not candidates:
            raise ValueError("cannot route a request with no accepting nodes")
        return min(candidates, key=lambda node: (node.open_connections, node.node_id))

    def weights(self, candidates: Sequence["ClusterNode"]) -> list[float]:
        return [1.0 / (1.0 + node.open_connections) for node in candidates]


class AgingAwareRouting(RoutingPolicy):
    """Shed traffic away from nodes that are forecast to crash soon.

    Each accepting node gets a *health weight*: ``1`` while its predicted
    time to failure stays at or above ``ttf_comfort_seconds``, decaying
    linearly below that down to ``shed_floor`` (never zero -- a node that is
    still up keeps serving a trickle, exactly like a real load balancer
    draining by weight).  Requests are then spread with smooth weighted
    round-robin, so a node at weight 0.25 receives a quarter of the traffic
    of a healthy peer.

    A node's health weight only changes when its forecast does — at a
    monitoring mark, a crash or a restart — while ``route`` runs for every
    request of every tick.  Between two such changes the candidates form a
    *regime*: membership and weights are frozen, so the policy scans a
    dense credit array against a frozen weight vector instead of
    recomputing every weight and walking a per-node credit dict.  A regime
    is revalidated cheaply: if the engine passes the *same list object* and
    the fleet's shared :class:`RoutingEpoch` counter has not moved, no
    per-node work happens at all; otherwise the candidates'
    ``(node_id, forecast_version)`` tuples are compared
    (:attr:`~repro.cluster.node.ClusterNode.forecast_version` is a counter
    the node bumps on every forecast transition), so fresh-but-equal
    candidate lists still hit.

    The credit array starts from the per-node credit dict and is written
    back when the regime ends, and the scan performs the float operations
    of a per-request scan over that dict in the identical order, so routing
    decisions are bit-for-bit those of the plain per-request algorithm.

    Parameters
    ----------
    ttf_comfort_seconds:
        Predicted time to failure at or above which a node is considered
        fully healthy.
    shed_floor:
        Minimum health weight of an alarmed node, in ``(0, 1]``.
    """

    def __init__(self, ttf_comfort_seconds: float = 900.0, shed_floor: float = 0.1) -> None:
        if ttf_comfort_seconds <= 0:
            raise ValueError("ttf_comfort_seconds must be positive")
        if not 0.0 < shed_floor <= 1.0:
            raise ValueError("shed_floor must be in (0, 1]")
        self.ttf_comfort_seconds = float(ttf_comfort_seconds)
        self.shed_floor = float(shed_floor)
        self._credit: dict[int, float] = {}
        # Regime identity: the validated candidate list (by object identity),
        # the fleet epoch backing the fast path, and the (ids, versions) key
        # backing the slow path.
        self._regime_list: Sequence["ClusterNode"] | None = None
        self._regime_epoch: RoutingEpoch | None = None
        self._regime_epoch_version = 0
        self._regime_key: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._regime_ids: tuple[int, ...] = ()
        # Regime dynamics: frozen weights and the live credit array.
        self._weights_vec: list[float] = []
        self._total = 0.0
        self._credits: list[float] = []

    def health_weight(self, node: "ClusterNode") -> float:
        """Traffic weight of one node from its current TTF forecast."""
        predicted = node.predicted_ttf_seconds
        if predicted is None:
            # No forecast yet (fresh incarnation or no predictor): healthy.
            return 1.0
        return max(self.shed_floor, min(1.0, predicted / self.ttf_comfort_seconds))

    def weights(self, candidates: Sequence["ClusterNode"]) -> list[float]:
        return [self.health_weight(node) for node in candidates]

    def route(self, candidates: Sequence["ClusterNode"]) -> "ClusterNode":
        if not candidates:
            raise ValueError("cannot route a request with no accepting nodes")
        # Fast path: the engine handed back the exact list object we already
        # validated and the fleet epoch has not moved, so membership and
        # every forecast are provably unchanged.
        if not (
            candidates is self._regime_list
            and self._regime_epoch is not None
            and self._regime_epoch.version == self._regime_epoch_version
        ):
            ids = tuple(node.node_id for node in candidates)
            versions = tuple(node.forecast_version for node in candidates)
            if (ids, versions) == self._regime_key:
                # Same regime through a different (or epoch-less) list object.
                self._rebind_regime(candidates)
            else:
                self._exit_regime()
                self._enter_regime(candidates, ids, versions)
        return candidates[self._scan()]

    def _enter_regime(
        self,
        candidates: Sequence["ClusterNode"],
        ids: tuple[int, ...],
        versions: tuple[int, ...],
    ) -> None:
        self._regime_list = candidates
        self._regime_key = (ids, versions)
        self._regime_ids = ids
        epoch = getattr(candidates[0], "routing_epoch", None)
        if epoch is not None and all(
            getattr(node, "routing_epoch", None) is epoch for node in candidates
        ):
            self._regime_epoch = epoch
            self._regime_epoch_version = epoch.version
        else:
            self._regime_epoch = None
        self._weights_vec = [self.health_weight(node) for node in candidates]
        self._total = sum(self._weights_vec)
        self._credits = [self._credit.get(node_id, 0.0) for node_id in ids]

    def _rebind_regime(self, candidates: Sequence["ClusterNode"]) -> None:
        self._regime_list = candidates
        if self._regime_epoch is not None:
            # The epoch may have been bumped by a node outside this regime;
            # the (ids, versions) match just proved our members are intact.
            self._regime_epoch_version = self._regime_epoch.version

    def _exit_regime(self) -> None:
        """Write the regime's credit state back to the per-node dict."""
        if self._regime_key is None:
            return
        for node_id, credit in zip(self._regime_ids, self._credits):
            self._credit[node_id] = credit
        self._regime_list = None
        self._regime_epoch = None
        self._regime_key = None
        self._regime_ids = ()
        self._weights_vec = []
        self._credits = []

    def _scan(self) -> int:
        """One smooth-WRR credit scan over the regime; return the winner's index.

        Accumulate credit, serve the largest, then charge it the round's
        total: deterministic and proportional to the weights.
        """
        credits = self._credits
        weights = self._weights_vec
        best_index = 0
        best_credit = float("-inf")
        for index in range(len(credits)):
            credit = credits[index] + weights[index]
            credits[index] = credit
            if credit > best_credit:
                best_credit = credit
                best_index = index
        credits[best_index] = credits[best_index] - self._total
        return best_index

    def describe(self) -> str:
        return (
            f"AgingAwareRouting(comfort {self.ttf_comfort_seconds:.0f}s, "
            f"floor {self.shed_floor:.2f})"
        )
