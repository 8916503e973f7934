"""Unit and determinism tests for the fluid (mean-field) engine tier.

Three layers of guarantees:

* the closed forms (mix moments, injector leak rates, largest-remainder
  allocation) match the exact components they collapse — the allocation is
  checked against the real ``LoadBalancer`` across randomized weights;
* the feature bank at fleet width reproduces the batch transform's rows
  (``tests/core/oracle.py``) **bit-for-bit** for every node, including
  after mid-stream node resets (restart cadence), and a fluid fleet computes
  its rows at its predictor's window;
* the engine honours the exact tier's operational contract: seeded repeat
  determinism, single-use, loud ``ValueError`` on everything the fluid tier
  has no closed form for.
"""

import random

import numpy as np
import pytest

from repro.cluster.balancer import LoadBalancer
from repro.cluster.coordinator import ClusterRejuvenationCoordinator, RollingPredictiveRejuvenation
from repro.cluster.fluid import FluidClusterEngine, _largest_remainder
from repro.cluster.routing import RoundRobinRouting, RoutingPolicy
from repro.core.features import RAW_VARIABLES, FeatureBank, FeatureCatalog, raw_matrix
from repro.core.predictor import AgingPredictor
from repro.experiments.scenarios import ClusterScenario
from repro.testbed.faults import (
    MemoryLeakInjector,
    PeriodicPatternInjector,
    ThreadLeakInjector,
)
from repro.testbed.fluid import (
    leak_rates_from_injectors,
    mix_stats,
)
from repro.testbed.monitoring.collector import MonitoringSample
from repro.testbed.tpcw.interactions import INTERACTIONS
from repro.testbed.tpcw.workload import WorkloadMix
from tests.core import oracle


class TestMixStats:
    def test_shares_are_a_distribution(self):
        stats = mix_stats(WorkloadMix.SHOPPING)
        assert sum(stats.shares.values()) == pytest.approx(1.0)
        assert all(share >= 0.0 for share in stats.shares.values())

    @pytest.mark.parametrize("mix", list(WorkloadMix))
    def test_moments_match_the_interaction_table(self, mix):
        stats = mix_stats(mix)
        weights = mix.weights()
        total = sum(weights)
        expected_demand = sum(
            weight * interaction.service_demand_factor
            for weight, interaction in zip(weights, INTERACTIONS)
        ) / total
        expected_queries = sum(
            weight * interaction.db_queries for weight, interaction in zip(weights, INTERACTIONS)
        ) / total
        assert stats.mean_service_demand == pytest.approx(expected_demand)
        assert stats.mean_db_queries == pytest.approx(expected_queries)

    def test_share_lookup(self):
        stats = mix_stats(WorkloadMix.SHOPPING)
        assert stats.share("search_request") > 0.0
        assert stats.share("not_an_interaction") == 0.0


class TestLeakRates:
    def test_memory_injector_expected_rate(self):
        stats = mix_stats(WorkloadMix.SHOPPING)
        injector = MemoryLeakInjector(n=20, seed=5)
        rates = leak_rates_from_injectors([injector], stats)
        mean_gap = (1.0 + 20 * 21 / 2.0) / 21.0
        expected = stats.share("search_request") * injector.leak_mb / mean_gap
        assert rates.leaked_mb_per_request == pytest.approx(expected)
        assert rates.threads_per_second == 0.0
        assert rates.leak_quantum_mb == injector.leak_mb

    def test_thread_injector_expected_rate(self):
        stats = mix_stats(WorkloadMix.SHOPPING)
        rates = leak_rates_from_injectors([ThreadLeakInjector(m=8, t=180, seed=5)], stats)
        assert rates.threads_per_second == pytest.approx(8.0 / 180.0)
        assert rates.leaked_mb_per_request == 0.0

    def test_disabled_injectors_contribute_nothing(self):
        stats = mix_stats(WorkloadMix.SHOPPING)
        rates = leak_rates_from_injectors(
            [MemoryLeakInjector(n=None), ThreadLeakInjector(m=8, t=180, enabled=False)], stats
        )
        assert rates.leaked_mb_per_request == 0.0
        assert rates.threads_per_second == 0.0

    def test_unsupported_injector_is_loud(self):
        stats = mix_stats(WorkloadMix.SHOPPING)
        with pytest.raises(ValueError, match="no closed form for injector"):
            leak_rates_from_injectors([PeriodicPatternInjector()], stats)


class _StubNode:
    def __init__(self, node_id):
        self.node_id = node_id
        self.accepting = True


class _StubWeights(RoundRobinRouting):
    """Round-robin routing reporting externally supplied weights."""

    def __init__(self, weights_by_id):
        super().__init__()
        self._weights_by_id = weights_by_id

    def weights(self, candidates):
        return [self._weights_by_id[node.node_id] for node in candidates]


class TestLargestRemainder:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_load_balancer(self, seed):
        """The vector form reproduces ``LoadBalancer.allocations`` exactly."""
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        total = rng.randint(0, 500)
        weights = [rng.choice([0.1, 0.25, 0.5, 1.0]) for _ in range(n)]
        nodes = [_StubNode(node_id) for node_id in range(n)]
        balancer = LoadBalancer(_StubWeights(dict(enumerate(weights))))
        expected = balancer.allocations(nodes, total)
        got = _largest_remainder(np.asarray(weights), np.arange(n), total) if total > 0 else None
        if total <= 0:
            assert all(share == 0 for share in expected.values())
            return
        for node_id in range(n):
            assert got[node_id] == expected[node_id], (seed, weights, total)
        assert int(got.sum()) == total

    def test_zero_weights_fall_back_to_even_split(self):
        got = _largest_remainder(np.zeros(4), np.arange(4), 10)
        assert got.tolist() == [3, 3, 2, 2]


def _random_sample(rng, time_seconds):
    """A synthetic monitoring sample with plausible magnitudes."""
    return MonitoringSample(
        time_seconds=time_seconds,
        throughput_rps=rng.uniform(0.0, 40.0),
        workload_ebs=rng.randint(0, 100),
        response_time_s=rng.uniform(0.01, 2.0),
        system_load=rng.uniform(0.0, 8.0),
        disk_used_mb=rng.uniform(500.0, 5000.0),
        swap_free_mb=rng.uniform(0.0, 1024.0),
        num_processes=rng.randint(90, 200),
        system_memory_used_mb=rng.uniform(200.0, 2000.0),
        tomcat_memory_used_mb=rng.uniform(100.0, 1000.0),
        num_threads=rng.randint(16, 96),
        http_connections=rng.randint(0, 96),
        mysql_connections=rng.randint(0, 151),
        young_max_mb=16.0,
        old_max_mb=128.0,
        young_used_mb=rng.uniform(0.0, 16.0),
        old_used_mb=rng.uniform(0.0, 128.0),
        young_used_pct=rng.uniform(0.0, 100.0),
        old_used_pct=rng.uniform(0.0, 100.0),
    )


def _oracle_rows(marks, window=12):
    """The batch transform's rows of one node's ``(time, sample)`` marks."""
    times = [time for time, _ in marks]
    raw = raw_matrix([sample for _, sample in marks])
    return oracle.feature_matrix(times, dict(zip(RAW_VARIABLES, raw.T)), window)[0]


class TestFeatureBankParity:
    """The fleet-width bank equals the batch transform of each node, bit for bit."""

    def test_rows_match_the_stream_exactly(self):
        bank = FeatureBank(FeatureCatalog(window=12), num_streams=3)
        rng = random.Random(2010)
        due = np.arange(3)
        marks = [[] for _ in due]
        rows = [[] for _ in due]
        for mark in range(40):
            time = 15.0 * (mark + 1)
            samples = [_random_sample(rng, time) for _ in due]
            got = bank.push(due, time, raw_matrix(samples))
            assert got.shape == (3, len(FeatureCatalog().feature_names))
            for node in due:
                marks[node].append((time, samples[node]))
                rows[node].append(got[node])
        for node in due:
            assert np.array(rows[node]).tobytes() == _oracle_rows(marks[node]).tobytes(), f"node {node}"

    def test_reset_restarts_a_node_bit_exactly(self):
        """A reset node's rows equal the transform of its new marks alone."""
        bank = FeatureBank(FeatureCatalog(window=12), num_streams=2)
        rng = random.Random(7)
        due = np.array([0, 1])
        for mark in range(18):
            sample = _random_sample(rng, 15.0 * (mark + 1))
            bank.push(due, sample.time_seconds, raw_matrix([sample, sample]))
        bank.reset(np.array([True, False]))
        assert bank.marks_pushed(0) == 0
        assert bank.marks_pushed(1) == 18

        marks, rows = [], []
        for mark in range(18, 36):
            sample = _random_sample(rng, 15.0 * (mark + 1))
            rows.append(bank.push(np.array([0]), sample.time_seconds, raw_matrix([sample]))[0])
            marks.append((sample.time_seconds, sample))
        assert np.array(rows).tobytes() == _oracle_rows(marks).tobytes()

    def test_empty_due_returns_empty_matrix(self):
        bank = FeatureBank(FeatureCatalog(), num_streams=3)
        got = bank.push(np.zeros(0, dtype=np.int64), 15.0, np.zeros((0, len(RAW_VARIABLES))))
        assert got.shape == (0, len(FeatureCatalog()))

    def test_a_node_whose_time_goes_backwards_is_rejected(self):
        bank = FeatureBank(FeatureCatalog(), num_streams=4)
        sample = _random_sample(random.Random(3), 30.0)
        bank.push(np.array([1, 3]), 30.0, raw_matrix([sample, sample]))
        with pytest.raises(ValueError, match="strictly increasing"):
            bank.push(np.array([0, 3]), 30.0, raw_matrix([sample, sample]))
        assert bank.marks_pushed(0) == 0 and bank.marks_pushed(3) == 1


def test_fluid_fleet_rows_use_the_predictor_window(fast_scenario, training_traces, monkeypatch):
    """Every row a fluid fleet's bank emits is the batch transform at the predictor's window."""
    window = 6
    predictor = AgingPredictor(model="linear", window=window).fit(training_traces)
    engine = _fluid_engine(
        fast_scenario,
        predictor=predictor,
        coordinator=RollingPredictiveRejuvenation(max_concurrent_restarts=2, min_active_fraction=0.5),
    )
    # Per node: the (time, raw, row) marks pushed since its last restart.
    segments = {node: [[]] for node in range(engine.num_nodes)}
    push, reset = FeatureBank.push, FeatureBank.reset

    def recording_push(bank, streams, time_seconds, raw):
        rows = push(bank, streams, time_seconds, raw)
        for node, values, row in zip(streams, raw, rows):
            segments[node][-1].append((time_seconds, values.copy(), row.copy()))
        return rows

    def recording_reset(bank, streams):
        for node in np.flatnonzero(streams):
            segments[node].append([])
        reset(bank, streams)

    monkeypatch.setattr(FeatureBank, "push", recording_push)
    monkeypatch.setattr(FeatureBank, "reset", recording_reset)
    outcome = engine.run(3600.0)
    assert outcome.rejuvenations + outcome.crashes > 0

    for node_segments in segments.values():
        assert len(node_segments[0]) > 3 * window
        for segment in filter(None, node_segments):
            times = [time for time, _, _ in segment]
            raw = np.array([values for _, values, _ in segment])
            expected, _ = oracle.feature_matrix(times, dict(zip(RAW_VARIABLES, raw.T)), window)
            assert np.array([row for _, _, row in segment]).tobytes() == expected.tobytes()


class _CustomRouting(RoutingPolicy):
    def route(self, candidates):
        return candidates[0]


class _CustomCoordinator(ClusterRejuvenationCoordinator):
    def decide(self, now_seconds, nodes):
        return []

    def describe(self):
        return "custom"


def _fluid_engine(scenario=None, **overrides):
    scenario = scenario if scenario is not None else ClusterScenario.fast()
    kwargs = dict(
        num_nodes=scenario.num_nodes,
        config=scenario.config,
        total_ebs=scenario.total_ebs,
        injector_factory=scenario.injector_factory,
        seed=scenario.cluster_seed,
    )
    kwargs.update(overrides)
    return FluidClusterEngine(**kwargs)


class TestFluidEngineContract:
    def test_seeded_repeats_are_identical(self):
        first = _fluid_engine().run(max_seconds=3600.0)
        second = _fluid_engine().run(max_seconds=3600.0)
        assert first == second

    def test_different_seeds_diverge(self):
        first = _fluid_engine().run(max_seconds=3600.0)
        second = _fluid_engine(seed=99).run(max_seconds=3600.0)
        assert first != second

    def test_single_use(self):
        engine = _fluid_engine()
        engine.run(max_seconds=600.0)
        with pytest.raises(RuntimeError, match="already been run"):
            engine.run(max_seconds=600.0)

    def test_outcome_invariants(self):
        outcome = _fluid_engine().run(max_seconds=3600.0)
        assert 0.0 <= outcome.availability <= 1.0
        assert outcome.served_requests == sum(node.requests_served for node in outcome.per_node)
        assert outcome.crashes == sum(node.crashes for node in outcome.per_node)
        assert outcome.rejuvenations == sum(node.rejuvenations for node in outcome.per_node)
        assert 0 <= outcome.min_active_nodes <= outcome.num_nodes
        assert outcome.full_outage_seconds + outcome.degraded_seconds <= outcome.horizon_seconds + 1e-9
        for node in outcome.per_node:
            assert 0.0 <= node.availability <= 1.0
            total = (
                node.uptime_seconds
                + node.planned_downtime_seconds
                + node.unplanned_downtime_seconds
            )
            assert total <= outcome.horizon_seconds + 1e-9

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="num_nodes"):
            _fluid_engine(num_nodes=0)
        with pytest.raises(ValueError, match="total_ebs"):
            _fluid_engine(total_ebs=0)
        with pytest.raises(ValueError, match="max_seconds"):
            _fluid_engine().run(max_seconds=0.0)

    def test_unsupported_routing_policy_is_loud(self):
        with pytest.raises(ValueError, match="no closed form for routing policy"):
            _fluid_engine(routing_policy=_CustomRouting())

    def test_unsupported_coordinator_is_loud(self):
        with pytest.raises(ValueError, match="no closed form for coordinator"):
            _fluid_engine(coordinator=_CustomCoordinator())

    def test_monitor_factory_is_loud(self):
        with pytest.raises(ValueError, match="lifecycle-managed monitors"):
            _fluid_engine(monitor_factory=lambda node_id: None)

    def test_unsupported_injector_is_loud(self):
        with pytest.raises(ValueError, match="no closed form for injector"):
            _fluid_engine(injector_factory=lambda seed: [PeriodicPatternInjector(seed=seed)])

    def test_node_configs_must_align(self):
        scenario = ClusterScenario.fast()
        with pytest.raises(ValueError, match="one configuration per node"):
            _fluid_engine(node_configs=(scenario.config,) * 2)

    def test_heterogeneous_fleet_runs(self):
        scenario = ClusterScenario.fast_heterogeneous()
        engine = _fluid_engine(
            scenario,
            num_nodes=scenario.num_nodes,
            node_configs=scenario.node_configs,
        )
        outcome = engine.run(max_seconds=3600.0)
        # The small-heap node 0 exhausts its Old generation before the
        # large-heap node 2 — same ordering the exact heterogeneous tests pin.
        assert outcome.per_node[0].crashes >= outcome.per_node[2].crashes

    def test_describe_names_the_tier(self):
        assert "FluidClusterEngine" in _fluid_engine().describe()
