"""Tests for the cluster engine, node lifecycle and fleet accounting."""

import pytest

from repro.cluster.engine import ClusterEngine
from repro.cluster.node import ClusterNode, NodeState
from repro.cluster.status import FleetStatus
from repro.testbed.faults.memory_leak import MemoryLeakInjector


def make_engine(scenario, **overrides):
    kwargs = dict(
        num_nodes=scenario.num_nodes,
        config=scenario.config,
        total_ebs=scenario.total_ebs,
        injector_factory=scenario.injector_factory,
        drain_seconds=scenario.drain_seconds,
        seed=scenario.cluster_seed,
    )
    kwargs.update(overrides)
    return ClusterEngine(**kwargs)


class TestHealthyFleet:
    def test_perfect_availability_without_faults(self, fast_scenario):
        engine = make_engine(fast_scenario, injector_factory=lambda seed: [])
        outcome = engine.run(max_seconds=900.0)
        assert outcome.availability == pytest.approx(1.0)
        assert outcome.crashes == 0
        assert outcome.full_outage_seconds == 0.0
        assert outcome.degraded_seconds == 0.0
        assert outcome.min_active_nodes == outcome.num_nodes
        assert outcome.request_success_rate == 1.0
        assert outcome.served_requests > 0

    def test_workload_spreads_over_all_nodes(self, fast_scenario):
        engine = make_engine(fast_scenario, injector_factory=lambda seed: [])
        outcome = engine.run(max_seconds=900.0)
        served = [node.requests_served for node in outcome.per_node]
        assert all(count > 0 for count in served)
        assert max(served) - min(served) < 0.2 * max(served)

    def test_engine_is_single_use(self, fast_scenario):
        engine = make_engine(fast_scenario, injector_factory=lambda seed: [])
        engine.run(max_seconds=60.0)
        with pytest.raises(RuntimeError):
            engine.run(max_seconds=60.0)


class TestCrashRedistribution:
    @pytest.fixture(scope="class")
    def crashed_fleet(self, fast_scenario):
        engine = make_engine(fast_scenario)
        outcome = engine.run(max_seconds=2400.0)  # past the first crashes
        return engine, outcome

    def test_nodes_crash_and_recover(self, crashed_fleet):
        engine, outcome = crashed_fleet
        assert outcome.crashes >= 1
        assert outcome.unplanned_downtime_seconds > 0
        # The fleet keeps serving through individual crashes.
        assert outcome.served_requests > 0

    def test_survivors_absorb_the_crashed_nodes_workload(self, crashed_fleet):
        engine, _outcome = crashed_fleet
        # Find a surviving node's samples taken while a peer was down: the
        # balancer reassigns the emulated browsers, so its recorded share
        # must exceed the even fleet split.
        nominal = engine.total_ebs // len(engine.nodes)
        inflated = [
            sample.workload_ebs
            for node in engine.nodes
            for trace in node.incarnations
            for sample in trace
            if sample.workload_ebs > nominal
        ]
        assert inflated, "no sample ever recorded an above-nominal workload share"
        assert max(inflated) >= engine.total_ebs // 2

    def test_mid_request_crashes_were_rerouted(self, crashed_fleet):
        engine, outcome = crashed_fleet
        # Memory-leak crashes surface while serving, so at least one request
        # was rerouted to a survivor (crashes on injector ticks would not be).
        assert outcome.crashes >= 1
        assert engine.requests_rerouted >= 1

    def test_per_node_accounting_matches_fleet(self, crashed_fleet):
        _engine, outcome = crashed_fleet
        assert outcome.crashes == sum(node.crashes for node in outcome.per_node)
        assert outcome.served_requests == sum(node.requests_served for node in outcome.per_node)
        assert outcome.unplanned_downtime_seconds == pytest.approx(
            sum(node.unplanned_downtime_seconds for node in outcome.per_node)
        )


class TestNodeLifecycle:
    def test_drain_then_planned_restart_then_rejoin(self, fast_scenario):
        node = ClusterNode(
            node_id=0,
            config=fast_scenario.config,
            injector_factory=lambda seed: [],
            seed=3,
            drain_seconds=5.0,
            rejuvenation_downtime_seconds=10.0,
        )
        assert node.state is NodeState.ACTIVE
        node.advance_tick()
        node.begin_drain()
        assert node.state is NodeState.DRAINING
        assert not node.accepting and node.live
        for _ in range(5):
            assert node.advance_tick()
        # Drain exhausted: the node goes down for the planned downtime.
        downtime_ticks = sum(0 if node.advance_tick() else 1 for _ in range(11))
        assert downtime_ticks == 10
        assert node.state is NodeState.ACTIVE
        assert node.rejuvenations == 1
        assert node.crashes == 0
        assert node.planned_downtime_seconds == pytest.approx(10.0)
        assert len(node.incarnations) == 2
        assert node.current_uptime_seconds <= 2.0  # fresh incarnation clock

    def test_only_active_nodes_can_drain(self, fast_scenario):
        node = ClusterNode(
            node_id=0, config=fast_scenario.config, injector_factory=lambda seed: [], seed=3
        )
        node.begin_drain()
        with pytest.raises(RuntimeError):
            node.begin_drain()

    def test_crashed_node_charges_unplanned_downtime(self, fast_scenario):
        engine = make_engine(
            fast_scenario,
            injector_factory=lambda seed: [MemoryLeakInjector(n=5, seed=seed)],
            crash_downtime_seconds=300.0,
        )
        outcome = engine.run(max_seconds=1500.0)
        assert outcome.crashes >= 1
        # At least one node sat out a full crash-recovery downtime.
        assert max(node.unplanned_downtime_seconds for node in outcome.per_node) >= 300.0

    def test_validation(self, fast_scenario):
        with pytest.raises(ValueError):
            ClusterNode(0, fast_scenario.config, lambda seed: [], drain_seconds=-1.0)
        with pytest.raises(ValueError):
            ClusterNode(0, fast_scenario.config, lambda seed: [], rejuvenation_downtime_seconds=0.0)
        with pytest.raises(ValueError):
            ClusterEngine(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterEngine(num_nodes=2, total_ebs=0)


class TestFleetStatusArithmetic:
    def test_capacity_weighted_availability(self):
        status = FleetStatus(num_nodes=4)
        for _ in range(60):
            status.record_tick(active_nodes=4, served=8, dropped=0)
        for _ in range(30):
            status.record_tick(active_nodes=2, served=4, dropped=1)
        for _ in range(10):
            status.record_tick(active_nodes=0, served=0, dropped=5)
        outcome = status.outcome([], "rr", "none")
        # 60s at 4/4 + 30s at 2/4 + 10s at 0/4 over 100s of horizon.
        assert outcome.horizon_seconds == pytest.approx(100.0)
        assert outcome.availability == pytest.approx((60 * 4 + 30 * 2) / (100 * 4))
        assert outcome.full_outage_seconds == pytest.approx(10.0)
        assert outcome.degraded_seconds == pytest.approx(30.0)
        assert outcome.min_active_nodes == 0
        assert outcome.served_requests == 60 * 8 + 30 * 4
        assert outcome.dropped_requests == 30 * 1 + 10 * 5
        assert outcome.request_success_rate == pytest.approx(600 / 680)

    def test_empty_horizon_and_validation(self):
        status = FleetStatus(num_nodes=2)
        assert status.outcome([], "rr", "none").availability == 0.0
        with pytest.raises(ValueError):
            FleetStatus(num_nodes=0)
        with pytest.raises(ValueError):
            status.record_tick(active_nodes=3, served=0, dropped=0)

    def test_summary_mentions_the_headline_numbers(self):
        status = FleetStatus(num_nodes=2)
        status.record_tick(active_nodes=1, served=3, dropped=1)
        summary = status.outcome([], "rr", "none").summary()
        assert "availability" in summary and "full outage" in summary
