"""Tests for the rejuvenation policies and the availability simulator."""

import pytest

from repro.core.predictor import AgingPredictor
from repro.rejuvenation.policies import (
    NoRejuvenationPolicy,
    PredictiveRejuvenationPolicy,
    TimeBasedRejuvenationPolicy,
)
from repro.rejuvenation.simulator import simulate_policy
from repro.testbed.config import TestbedConfig
from repro.testbed.engine import TestbedSimulation
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.monitoring.collector import Trace


def fast_config():
    return TestbedConfig(
        heap_max_mb=160.0,
        young_capacity_mb=16.0,
        old_initial_mb=48.0,
        old_resize_step_mb=32.0,
        perm_mb=16.0,
        max_threads=96,
        base_worker_threads=16,
    )


def aging_trace(seed):
    simulation = TestbedSimulation(
        config=fast_config(),
        workload_ebs=40,
        injectors=[MemoryLeakInjector(n=20, seed=seed)],
        seed=seed,
    )
    return simulation.run(max_seconds=14_400)


@pytest.fixture(scope="module")
def training_traces():
    return [aging_trace(1), aging_trace(2)]


@pytest.fixture(scope="module")
def fitted_predictor(training_traces):
    return AgingPredictor(model="m5p").fit(training_traces)


@pytest.fixture(scope="module")
def trace_factory():
    cache = {}

    def factory(epoch):
        if epoch not in cache:
            cache[epoch] = aging_trace(100 + epoch)
        return cache[epoch]

    return factory


class TestPolicies:
    def test_no_rejuvenation_never_fires(self, trace_factory):
        policy = NoRejuvenationPolicy()
        trace = trace_factory(0)
        history = trace
        assert not any(policy.should_rejuvenate(sample, history) for sample in trace.samples[:20])

    def test_time_based_fires_at_interval(self, trace_factory):
        policy = TimeBasedRejuvenationPolicy(interval_seconds=300.0)
        trace = trace_factory(0)
        fired_at = None
        for sample in trace:
            if policy.should_rejuvenate(sample, trace):
                fired_at = sample.time_seconds
                break
        assert fired_at is not None
        assert fired_at == pytest.approx(300.0, abs=30.0)

    def test_predictive_policy_requires_fitted_predictor(self):
        with pytest.raises(ValueError):
            PredictiveRejuvenationPolicy(AgingPredictor())

    def test_validation(self, fitted_predictor):
        with pytest.raises(ValueError):
            TimeBasedRejuvenationPolicy(interval_seconds=0.0)
        with pytest.raises(ValueError):
            PredictiveRejuvenationPolicy(fitted_predictor, threshold_seconds=0.0)
        with pytest.raises(ValueError):
            PredictiveRejuvenationPolicy(fitted_predictor, consecutive=0)

    def test_describe_mentions_parameters(self, fitted_predictor):
        assert "600" in PredictiveRejuvenationPolicy(fitted_predictor, threshold_seconds=600.0).describe()
        assert "1800" in TimeBasedRejuvenationPolicy(1800.0).describe()


class TestSimulator:
    def test_no_rejuvenation_accumulates_crashes(self, trace_factory):
        outcome = simulate_policy(NoRejuvenationPolicy(), trace_factory, horizon_seconds=4 * 3600.0)
        assert outcome.crashes >= 1
        assert outcome.rejuvenations == 0
        assert outcome.unplanned_downtime_seconds > 0
        assert 0.0 < outcome.availability < 1.0

    def test_predictive_policy_avoids_crashes(self, trace_factory, fitted_predictor):
        policy = PredictiveRejuvenationPolicy(fitted_predictor, threshold_seconds=400.0, consecutive=1)
        outcome = simulate_policy(policy, trace_factory, horizon_seconds=4 * 3600.0)
        assert outcome.rejuvenations >= 1
        assert outcome.crashes == 0

    def test_predictive_beats_no_rejuvenation_on_availability(self, trace_factory, fitted_predictor):
        baseline = simulate_policy(NoRejuvenationPolicy(), trace_factory, horizon_seconds=4 * 3600.0)
        predictive = simulate_policy(
            PredictiveRejuvenationPolicy(fitted_predictor, threshold_seconds=400.0, consecutive=1),
            trace_factory,
            horizon_seconds=4 * 3600.0,
        )
        assert predictive.availability > baseline.availability

    def test_predictive_restarts_less_often_than_aggressive_time_based(self, trace_factory, fitted_predictor):
        # A time-based policy tight enough to avoid crashes restarts much more
        # often than the predictive one -- the paper's argument for prediction.
        time_based = simulate_policy(
            TimeBasedRejuvenationPolicy(interval_seconds=600.0), trace_factory, horizon_seconds=4 * 3600.0
        )
        predictive = simulate_policy(
            PredictiveRejuvenationPolicy(fitted_predictor, threshold_seconds=400.0, consecutive=1),
            trace_factory,
            horizon_seconds=4 * 3600.0,
        )
        assert predictive.rejuvenations < time_based.rejuvenations

    def test_outcome_accounting_is_consistent(self, trace_factory):
        outcome = simulate_policy(
            TimeBasedRejuvenationPolicy(interval_seconds=900.0), trace_factory, horizon_seconds=2 * 3600.0
        )
        assert outcome.uptime_seconds + outcome.downtime_seconds <= outcome.horizon_seconds + 1e-6
        assert outcome.downtime_seconds == pytest.approx(
            outcome.planned_downtime_seconds + outcome.unplanned_downtime_seconds
        )
        assert "availability" in outcome.summary()

    def test_validation(self, trace_factory):
        with pytest.raises(ValueError):
            simulate_policy(NoRejuvenationPolicy(), trace_factory, horizon_seconds=0.0)
        with pytest.raises(ValueError):
            simulate_policy(NoRejuvenationPolicy(), trace_factory, horizon_seconds=10.0, max_epochs=0)
        with pytest.raises(ValueError):
            simulate_policy(
                NoRejuvenationPolicy(), trace_factory, horizon_seconds=10.0, rejuvenation_downtime_seconds=0.0
            )


class _WholeHistoryPolicy(PredictiveRejuvenationPolicy):
    """The predictive policy re-predicting the whole epoch at every mark, as it once did."""

    def should_rejuvenate(self, sample, history):
        predicted = float(self.predictor.predict_trace(history)[-1])
        self._streak = self._streak + 1 if predicted <= self.threshold_seconds else 0
        return self._streak >= self.consecutive


class TestIncrementalPredictivePolicy:
    def test_outcome_matches_re_predicting_the_whole_history(self, trace_factory, fitted_predictor):
        # A late, hesitant policy: some epochs end in a crash, so the streak
        # carries over into the next epoch, and some in a rejuvenation.
        outcomes = [
            simulate_policy(
                policy(fitted_predictor, threshold_seconds=60.0, consecutive=3),
                trace_factory,
                horizon_seconds=4 * 3600.0,
            )
            for policy in (PredictiveRejuvenationPolicy, _WholeHistoryPolicy)
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0].crashes > 0 and outcomes[0].rejuvenations > 0

    def test_every_mark_is_predicted_as_from_the_whole_history(self, trace_factory, fitted_predictor):
        policy = PredictiveRejuvenationPolicy(fitted_predictor, threshold_seconds=1.0)
        history = Trace()
        for sample in trace_factory(0):
            history.samples.append(sample)
            policy.should_rejuvenate(sample, history)
            expected = fitted_predictor.predict_trace(history)[-1]
            assert fitted_predictor.predict_row(policy._row) == expected
        # A second call on the same history predicts the same mark again.
        row = policy._row.copy()
        policy.should_rejuvenate(history.samples[-1], history)
        assert policy._row.tobytes() == row.tobytes()

    def test_rejects_an_empty_history(self, fitted_predictor):
        with pytest.raises(ValueError, match="empty history"):
            PredictiveRejuvenationPolicy(fitted_predictor).should_rejuvenate(None, Trace())
