"""The streaming hot path: incremental predictions vs full-history replays.

``OnlineAgingMonitor.observe`` used to rebuild the entire feature matrix
from the entire history at every mark -- an O(n^2) loop for a streaming
consumer.  The incremental path (a one-stream ``FeatureBank`` +
``predict_row``) must be **bit-for-bit** identical to the batch computation
(tree models route on ulp-level splits, and the engines' golden digests
assume the equivalence) while retaining only O(window) state however long
the stream runs.
"""

import numpy as np
import pytest

from repro.core.features import FeatureBank, FeatureCatalog, raw_matrix
from repro.core.online import OnlineAgingMonitor
from repro.core.predictor import AgingPredictor
from tests.core import oracle

STREAM = np.zeros(1, dtype=np.intp)


def streamed_predictions(predictor, trace):
    monitor = OnlineAgingMonitor(predictor)
    return np.array([monitor.observe(sample).predicted_ttf_seconds for sample in trace])


class TestFeatureStreamParity:
    """A one-stream bank fed sample by sample, as the monitor feeds it."""

    def test_rows_match_batch_matrix_bitwise(self, test_trace):
        expected, _ = oracle.trace_matrix(test_trace, window=12)
        bank = FeatureBank(FeatureCatalog())
        for index, sample in enumerate(test_trace):
            row = bank.push(STREAM, sample.time_seconds, raw_matrix([sample]))[0]
            assert row.tobytes() == expected[index].tobytes(), f"row {index} diverged"

    def test_raw_only_catalog(self, test_trace):
        expected, _ = oracle.trace_matrix(test_trace, window=12, include_derived=False)
        bank = FeatureBank(FeatureCatalog(include_derived=False))
        for index, sample in enumerate(test_trace):
            row = bank.push(STREAM, sample.time_seconds, raw_matrix([sample]))[0]
            assert row.tobytes() == expected[index].tobytes()

    def test_rejects_non_increasing_times(self, test_trace):
        bank = FeatureBank(FeatureCatalog())
        samples = list(test_trace)
        bank.push(STREAM, samples[1].time_seconds, raw_matrix([samples[1]]))
        with pytest.raises(ValueError, match="strictly increasing"):
            bank.push(STREAM, samples[0].time_seconds, raw_matrix([samples[0]]))


class TestOnlineMonitorParity:
    @pytest.mark.parametrize("model", ["m5p", "linear", "tree"])
    def test_streaming_matches_batch_replay(self, model, m5p_predictor, training_traces, test_trace):
        if model == "m5p":
            predictor = m5p_predictor
        else:
            predictor = AgingPredictor(model=model).fit(training_traces)
        batch = predictor.predict_trace(test_trace)
        assert np.array_equal(streamed_predictions(predictor, test_trace), batch)

    def test_streaming_matches_batch_with_feature_selection(self, training_traces, test_trace):
        predictor = AgingPredictor(
            model="m5p",
            feature_names=["old_used_mb", "swa_speed[old_used_mb]", "num_threads"],
        ).fit(training_traces)
        batch = predictor.predict_trace(test_trace)
        assert np.array_equal(streamed_predictions(predictor, test_trace), batch)

    def test_streaming_matches_batch_on_healthy_run(self, m5p_predictor, healthy_trace):
        batch = m5p_predictor.predict_trace(healthy_trace)
        assert np.array_equal(streamed_predictions(m5p_predictor, healthy_trace), batch)


class TestBoundedMemory:
    def test_monitor_retains_only_the_feature_window(self, training_traces, test_trace):
        predictor = AgingPredictor(model="tree").fit(training_traces)
        monitor = OnlineAgingMonitor(predictor)
        for sample in test_trace:
            monitor.observe(sample)
        assert monitor.num_samples == len(test_trace)
        assert len(monitor.recent_samples) <= predictor.window + 1
        assert monitor.recent_samples[-1] is list(test_trace)[-1]

    def test_reset_replays_identically(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor)
        first = [monitor.observe(sample).predicted_ttf_seconds for sample in test_trace]
        monitor.reset()
        assert monitor.num_samples == 0
        second = [monitor.observe(sample).predicted_ttf_seconds for sample in test_trace]
        assert first == second

    def test_rejects_time_going_backwards(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor)
        samples = list(test_trace)
        monitor.observe(samples[1])
        with pytest.raises(ValueError, match="increasing time order"):
            monitor.observe(samples[0])
