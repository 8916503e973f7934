"""The per-second fleet loop and the per-request routing scan, kept as references.

``PerSecondClusterEngine`` is the original cluster loop: every tick it
advances every node, ticks every browser and routes each issued request
through :func:`route`, the balancer's filter of the accepting nodes, to
:func:`serve`, the object serving path of ``tests/testbed/oracle.py``.  The
event-driven ``ClusterEngine`` must reproduce its outcomes, monitoring
samples and sim-channel telemetry bit for bit, under any boundary mutation.

``ReferenceAgingAwareRouting`` recomputes every candidate's health weight
and runs smooth weighted round-robin over a per-node credit dict on every
request: the scan whose decisions ``AgingAwareRouting``'s frozen-weight
regimes must reproduce exactly.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.balancer import LoadBalancer
from repro.cluster.engine import ClusterEngine
from repro.cluster.node import ClusterNode
from repro.cluster.routing import AgingAwareRouting
from repro.experiments import cluster as experiments_cluster
from repro.telemetry.hub import ENGINE
from repro.testbed.clock import TICK_SECONDS
from repro.testbed.errors import ServerCrash
from repro.testbed.tpcw.interactions import Interaction
from tests.testbed.oracle import RequestOutcome, handle_request


def serve(node: ClusterNode, interaction: Interaction) -> RequestOutcome:
    """Serve one routed request on ``node`` through the object path."""
    outcome = handle_request(node.simulation.server, interaction)
    node.requests_served += 1
    return outcome


def route(balancer: LoadBalancer, nodes: Sequence[ClusterNode]) -> ClusterNode | None:
    """Pick the node for the next request, or ``None`` on full outage."""
    candidates = [node for node in nodes if node.accepting]
    if not candidates:
        return None
    return balancer.policy.route(candidates)


class ReferenceAgingAwareRouting(AgingAwareRouting):
    """Aging-aware routing that rescans every candidate on every request."""

    def route(self, candidates: Sequence[ClusterNode]) -> ClusterNode:
        if not candidates:
            raise ValueError("cannot route a request with no accepting nodes")
        weights = self.weights(candidates)
        total = sum(weights)
        # Smooth weighted round-robin: accumulate credit, serve the largest,
        # then charge it the round's total.
        best_index = 0
        best_credit = float("-inf")
        for index, (node, weight) in enumerate(zip(candidates, weights)):
            credit = self._credit.get(node.node_id, 0.0) + weight
            self._credit[node.node_id] = credit
            if credit > best_credit:
                best_credit = credit
                best_index = index
        chosen = candidates[best_index]
        self._credit[chosen.node_id] = self._credit[chosen.node_id] - total
        return chosen


class PerSecondClusterEngine(ClusterEngine):
    """The tick-everything fleet loop: every node and browser, every tick."""

    def _start(self) -> None:
        """Every tick is processed: there are no wake events to arm."""

    def _advance(self, target: int) -> None:
        for _ in range(target - self._current_tick):
            self.clock.advance()
            self._run_one_tick()

    def _settle(self) -> None:
        """Nothing is lazy (every tick settled as it ran): count the ticks."""
        if self.telemetry is not None:
            self.telemetry.count("cluster.per_second.ticks", self.clock.ticks, channel=ENGINE)

    # Boundary mutations reduce to the plain lifecycle calls: the loop
    # re-derives everything per tick, so nothing needs re-arming.

    def _apply_load(self, total_ebs: int) -> None:
        self.workload.set_num_browsers(total_ebs)

    def _apply_kill(self, node_id: int, crash: ServerCrash) -> None:
        self.nodes[node_id].record_crash(crash)

    def _apply_rejuvenate(self, node_id: int) -> None:
        self.nodes[node_id].begin_drain()

    def _run_one_tick(self) -> None:
        live_nodes = [node for node in self.nodes if node.advance_tick()]
        served, dropped, routed_per_node = self._route_requests()
        self._drive_injectors(live_nodes)
        self._close_node_ticks(live_nodes, routed_per_node)
        active = sum(1 for node in self.nodes if node.accepting)
        self.status.record_tick(active_nodes=active, served=served, dropped=dropped)
        for node in self.coordinator.decide(self.clock.now, self.nodes):
            node.begin_drain()

    def _route_requests(self) -> tuple[int, int, dict[int, int]]:
        """Issue this tick's fleet workload and route it request by request."""
        served = 0
        dropped = 0
        routed_per_node: dict[int, int] = {}
        for browser, interaction in self.workload.tick(TICK_SECONDS):
            while True:
                target = route(self.balancer, self.nodes)
                if target is None:
                    # Full outage: the request is lost and the browser backs off.
                    dropped += 1
                    browser.start_request(self.dropped_request_penalty_s)
                    break
                try:
                    outcome = serve(target, interaction)
                except ServerCrash as crash:
                    # The node died under this request: take it out of
                    # rotation and redistribute to the survivors.
                    target.record_crash(crash)
                    self.requests_rerouted += 1
                    continue
                browser.start_request(outcome.response_time_s)
                served += 1
                routed_per_node[target.node_id] = routed_per_node.get(target.node_id, 0) + 1
                break
        return served, dropped, routed_per_node

    def _drive_injectors(self, live_nodes: Sequence[ClusterNode]) -> None:
        for node in live_nodes:
            if not node.live:  # crashed earlier this tick while serving
                continue
            try:
                node.drive_injectors()
            except ServerCrash as crash:
                node.record_crash(crash)

    def _close_node_ticks(self, live_nodes: Sequence[ClusterNode], routed: dict[int, int]) -> None:
        allocations = self.balancer.allocations(self.nodes, self.total_ebs)
        for node in live_nodes:
            if not node.live:
                continue
            node.end_tick(
                requests_completed=routed.get(node.node_id, 0),
                assigned_ebs=allocations.get(node.node_id, 0),
            )


def build_cluster_engine(
    scenario, coordinator, routing_policy=None, predictor=None, fleet_engine="event"
):
    """``build_cluster_engine`` with the per-second loop as a third tier.

    ``fleet_engine="per_second"`` builds :class:`PerSecondClusterEngine` from
    the scenario's ``engine_kwargs``, exactly as
    :func:`repro.experiments.cluster.build_cluster_engine` builds
    ``ClusterEngine``; ``"event"`` and ``"fluid"`` go to that function.
    """
    if fleet_engine != "per_second":
        return experiments_cluster.build_cluster_engine(
            scenario,
            coordinator,
            routing_policy=routing_policy,
            predictor=predictor,
            fleet_engine=fleet_engine,
        )
    return PerSecondClusterEngine(
        routing_policy=routing_policy,
        coordinator=coordinator,
        predictor=predictor,
        **experiments_cluster.engine_kwargs(scenario),
    )
