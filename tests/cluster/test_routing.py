"""Tests for the routing policies and the load balancer's EB accounting."""

from collections import Counter

import pytest

from repro.cluster.balancer import LoadBalancer
from repro.cluster.routing import (
    AgingAwareRouting,
    LeastConnectionsRouting,
    RoundRobinRouting,
    RoutingEpoch,
)
from tests.cluster.oracle import ReferenceAgingAwareRouting, route


class StubNode:
    """Duck-typed node: exactly the attributes the routing layer reads.

    Like a real ``ClusterNode`` it carries a ``forecast_version`` counter;
    a test that changes a forecast bumps it, as every node transition does.
    """

    def __init__(self, node_id, predicted_ttf_seconds=None, open_connections=0, accepting=True):
        self.node_id = node_id
        self.predicted_ttf_seconds = predicted_ttf_seconds
        self.open_connections = open_connections
        self.accepting = accepting
        self.forecast_version = 0


def fleet(overrides=None):
    nodes = [StubNode(0), StubNode(1), StubNode(2)]
    for node_id, attrs in (overrides or {}).items():
        for name, value in attrs.items():
            setattr(nodes[node_id], name, value)
    return nodes


class TestRoundRobin:
    def test_cycles_evenly(self):
        policy = RoundRobinRouting()
        nodes = fleet()
        counts = Counter(policy.route(nodes).node_id for _ in range(300))
        assert counts == {0: 100, 1: 100, 2: 100}

    def test_adapts_to_membership_changes(self):
        policy = RoundRobinRouting()
        nodes = fleet()
        policy.route(nodes)
        survivors = nodes[:2]
        counts = Counter(policy.route(survivors).node_id for _ in range(100))
        assert set(counts) == {0, 1}

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinRouting().route([])


class TestLeastConnections:
    def test_picks_least_loaded(self):
        nodes = fleet({0: {"open_connections": 9}, 1: {"open_connections": 2}, 2: {"open_connections": 5}})
        assert LeastConnectionsRouting().route(nodes).node_id == 1

    def test_ties_break_by_node_id(self):
        nodes = fleet()
        assert LeastConnectionsRouting().route(nodes).node_id == 0


class TestAgingAware:
    def test_healthy_fleet_splits_evenly(self):
        policy = AgingAwareRouting(ttf_comfort_seconds=900.0)
        nodes = fleet()
        counts = Counter(policy.route(nodes).node_id for _ in range(300))
        assert counts == {0: 100, 1: 100, 2: 100}

    def test_sheds_traffic_from_aging_node(self):
        policy = AgingAwareRouting(ttf_comfort_seconds=900.0, shed_floor=0.1)
        nodes = fleet({1: {"predicted_ttf_seconds": 90.0}})  # weight 0.1
        counts = Counter(policy.route(nodes).node_id for _ in range(420))
        # The aging node gets ~0.1/2.1 of the traffic, the healthy ones ~1/2.1.
        assert counts[1] == pytest.approx(420 * 0.1 / 2.1, abs=3)
        assert counts[0] == pytest.approx(420 / 2.1, abs=3)
        assert counts[0] + counts[1] + counts[2] == 420

    def test_never_starves_an_alarmed_node_completely(self):
        policy = AgingAwareRouting(ttf_comfort_seconds=900.0, shed_floor=0.1)
        nodes = fleet({2: {"predicted_ttf_seconds": 0.0}})
        counts = Counter(policy.route(nodes).node_id for _ in range(200))
        assert counts[2] > 0

    def test_missing_forecast_counts_as_healthy(self):
        policy = AgingAwareRouting()
        assert policy.health_weight(StubNode(0, predicted_ttf_seconds=None)) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AgingAwareRouting(ttf_comfort_seconds=0.0)
        with pytest.raises(ValueError):
            AgingAwareRouting(shed_floor=0.0)
        with pytest.raises(ValueError):
            AgingAwareRouting(shed_floor=1.5)


class VersionedStubNode(StubNode):
    """Stub whose forecast changes always bump its version counter."""

    def set_forecast(self, predicted_ttf_seconds):
        self.predicted_ttf_seconds = predicted_ttf_seconds
        self.forecast_version += 1


class TestAgingAwareWeightCache:
    """The memoized weight vector must never change a routing decision."""

    def _decision_stream(self, policy, steps=400, width=6):
        nodes = [VersionedStubNode(i, 900.0) for i in range(width)]
        decisions = []
        for step in range(steps):
            if step % 50 == 25:  # a monitoring mark moves one node's forecast
                nodes[step % width].set_forecast(50.0 + (step % 7) * 100.0)
            if step % 90 == 60:  # a crash takes a node out, a restart heals one
                nodes[(step + 1) % width].set_forecast(None)
            decisions.append(policy.route(nodes).node_id)
        return decisions

    def test_cached_decisions_match_uncached_bit_for_bit(self):
        cached = self._decision_stream(AgingAwareRouting())
        uncached = self._decision_stream(ReferenceAgingAwareRouting())
        assert cached == uncached

    def test_version_bump_invalidates_the_cache(self):
        policy = AgingAwareRouting(ttf_comfort_seconds=900.0, shed_floor=0.1)
        nodes = [VersionedStubNode(0, 900.0), VersionedStubNode(1, 900.0)]
        for _ in range(10):
            policy.route(nodes)
        nodes[1].set_forecast(9.0)  # weight drops to the shed floor
        counts = Counter(policy.route(nodes).node_id for _ in range(110))
        assert counts[1] == pytest.approx(110 * 0.1 / 1.1, abs=2)

    def test_membership_change_invalidates_the_cache(self):
        policy = AgingAwareRouting()
        nodes = [VersionedStubNode(i, 900.0) for i in range(3)]
        for _ in range(9):
            policy.route(nodes)
        survivors = nodes[:2]  # fresh candidate list object, like the engine builds
        assert {policy.route(survivors).node_id for _ in range(10)} == {0, 1}


class EpochStubNode(VersionedStubNode):
    """Epoch-wired stub: bumps the fleet-shared RoutingEpoch like real nodes."""

    def __init__(self, node_id, predicted_ttf_seconds, epoch):
        super().__init__(node_id, predicted_ttf_seconds)
        self.routing_epoch = epoch

    def set_forecast(self, predicted_ttf_seconds):
        super().set_forecast(predicted_ttf_seconds)
        self.routing_epoch.version += 1


class TestAgingAwareCycleReplay:
    """Regime switches must be invisible in the decision stream.

    Within a regime (stable membership and forecasts) the policy scans a
    dense credit array against frozen weights; at every change it writes
    the credits back and starts the next regime from them.  Every test here
    pins that entering, leaving and rebinding regimes -- short or long,
    periodic or not -- is bit-for-bit equal to the per-request reference
    scan of ``tests/cluster/oracle.py``.
    """

    # Forecasts are dyadic fractions of the 900 s comfort window, so the
    # health weights (1.0, 0.5, 0.25) make smooth WRR exactly periodic.
    DYADIC_SCHEDULE = {40: (1, 450.0), 300: (3, 225.0), 301: (1, None), 650: (5, 450.0)}

    def _epoch_fleet(self, width=6):
        epoch = RoutingEpoch()
        return [EpochStubNode(i, 900.0, epoch) for i in range(width)], epoch

    def _drive(self, policy, nodes, schedule, steps):
        decisions = []
        for step in range(steps):
            change = schedule.get(step)
            if change is not None:
                index, ttf = change
                nodes[index].set_forecast(ttf)
            decisions.append(policy.route(nodes).node_id)
        return decisions

    def test_dyadic_regimes_match_reference_bit_for_bit(self):
        fast_nodes, _ = self._epoch_fleet()
        slow_nodes, _ = self._epoch_fleet()
        fast = self._drive(AgingAwareRouting(), fast_nodes, self.DYADIC_SCHEDULE, 1000)
        slow = self._drive(ReferenceAgingAwareRouting(), slow_nodes, self.DYADIC_SCHEDULE, 1000)
        assert fast == slow

    def test_long_dyadic_regimes_match_reference(self):
        # Regimes of thousands of requests: each one runs through many
        # periods of its smooth-WRR cycle before the next forecast change.
        schedule = {0: (0, 450.0), 2500: (2, 225.0), 5100: (0, None), 7700: (3, 450.0)}
        fast_nodes, _ = self._epoch_fleet(width=4)
        slow_nodes, _ = self._epoch_fleet(width=4)
        fast = self._drive(AgingAwareRouting(), fast_nodes, schedule, 10_000)
        slow = self._drive(ReferenceAgingAwareRouting(), slow_nodes, schedule, 10_000)
        assert fast == slow
        assert len(set(fast)) == 4

    def test_regime_exit_mid_replay_reconstructs_credits(self):
        # A forecast change lands at an arbitrary phase of a periodic
        # regime; the regime credits must be written back exactly for the
        # next regime to stay aligned with reference.
        schedule = {0: (0, 450.0), 137: (2, 225.0), 138: (0, None), 291: (2, None)}
        fast_nodes, _ = self._epoch_fleet(width=4)
        slow_nodes, _ = self._epoch_fleet(width=4)
        fast = self._drive(AgingAwareRouting(), fast_nodes, schedule, 600)
        slow = self._drive(ReferenceAgingAwareRouting(), slow_nodes, schedule, 600)
        assert fast == slow

    def test_epoch_bump_outside_the_regime_rebinds_cheaply(self):
        nodes, _ = self._epoch_fleet(width=7)
        candidates = nodes[:6]  # node 6 crashed: it is no longer routed to
        policy = AgingAwareRouting()
        reference = ReferenceAgingAwareRouting()
        decisions = [policy.route(candidates).node_id for _ in range(30)]
        nodes[6].set_forecast(10.0)  # bumps the shared epoch from outside
        decisions += [policy.route(candidates).node_id for _ in range(30)]
        expected = [reference.route(candidates).node_id for _ in range(60)]
        assert decisions == expected
        assert policy._regime_list is candidates  # rebound, not rebuilt

    def test_messy_long_regime_matches_reference(self):
        # Non-dyadic weights whose credit state may never recur exactly,
        # over one regime longer than 2,048 requests.
        fast_nodes, _ = self._epoch_fleet(width=5)
        slow_nodes, _ = self._epoch_fleet(width=5)
        for fleet in (fast_nodes, slow_nodes):
            for node, ttf in zip(fleet, (871.0, 533.0, 777.0, 412.0, None)):
                if ttf is not None:
                    node.set_forecast(ttf)
        policy = AgingAwareRouting()
        fast = [policy.route(fast_nodes).node_id for _ in range(5000)]
        reference = ReferenceAgingAwareRouting()
        slow = [reference.route(slow_nodes).node_id for _ in range(5000)]
        assert fast == slow
        assert policy._regime_list is fast_nodes  # one regime, on the epoch fast path


class TestLoadBalancerAllocations:
    def test_even_allocation_sums_to_total(self):
        balancer = LoadBalancer(RoundRobinRouting())
        shares = balancer.allocations(fleet(), total_ebs=100)
        assert sum(shares.values()) == 100
        assert all(share in (33, 34) for share in shares.values())

    def test_non_accepting_nodes_get_zero(self):
        balancer = LoadBalancer(RoundRobinRouting())
        nodes = fleet({1: {"accepting": False}})
        shares = balancer.allocations(nodes, total_ebs=120)
        assert shares[1] == 0
        assert shares[0] == shares[2] == 60

    def test_weighted_allocation_follows_health(self):
        balancer = LoadBalancer(AgingAwareRouting(ttf_comfort_seconds=900.0, shed_floor=0.1))
        nodes = fleet({0: {"predicted_ttf_seconds": 90.0}})
        shares = balancer.allocations(nodes, total_ebs=210)
        assert sum(shares.values()) == 210
        assert shares[0] < shares[1] == shares[2]

    def test_full_outage_allocates_nothing_and_routes_none(self):
        balancer = LoadBalancer(RoundRobinRouting())
        nodes = fleet({0: {"accepting": False}, 1: {"accepting": False}, 2: {"accepting": False}})
        assert balancer.allocations(nodes, total_ebs=50) == {0: 0, 1: 0, 2: 0}
        assert route(balancer, nodes) is None

    def test_route_skips_non_accepting(self):
        balancer = LoadBalancer(RoundRobinRouting())
        nodes = fleet({0: {"accepting": False}})
        picks = {route(balancer, nodes).node_id for _ in range(10)}
        assert picks == {1, 2}
