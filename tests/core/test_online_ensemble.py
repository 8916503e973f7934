"""Tests for the on-line monitor."""

import pytest

from repro.core.online import OnlineAgingMonitor
from repro.core.predictor import AgingPredictor


class TestOnlineAgingMonitor:
    def test_streaming_matches_batch_prediction_at_the_end(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor, alarm_threshold_seconds=300.0)
        predictions = monitor.replay(test_trace)
        assert len(predictions) == len(test_trace)
        batch = m5p_predictor.predict_trace(test_trace)
        # The last streamed prediction sees exactly the same history as the
        # last batch row, so the two must agree.
        assert predictions[-1].predicted_ttf_seconds == pytest.approx(batch[-1], rel=1e-6)

    def test_alarm_fires_before_crash_for_aging_run(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor, alarm_threshold_seconds=600.0, alarm_consecutive=2)
        monitor.replay(test_trace)
        assert monitor.alarm_raised
        assert monitor.alarm_time is not None
        assert monitor.alarm_time < test_trace.crash_time_seconds

    def test_no_alarm_for_healthy_run(self, m5p_predictor, healthy_trace):
        monitor = OnlineAgingMonitor(m5p_predictor, alarm_threshold_seconds=120.0, alarm_consecutive=3)
        monitor.replay(healthy_trace)
        assert not monitor.alarm_raised

    def test_consecutive_requirement_filters_single_blips(self, m5p_predictor, test_trace):
        strict = OnlineAgingMonitor(m5p_predictor, alarm_threshold_seconds=600.0, alarm_consecutive=50)
        strict.replay(test_trace)
        lenient = OnlineAgingMonitor(m5p_predictor, alarm_threshold_seconds=600.0, alarm_consecutive=1)
        lenient.replay(test_trace)
        if strict.alarm_raised:
            assert lenient.alarm_time <= strict.alarm_time
        else:
            assert lenient.alarm_raised

    def test_out_of_order_samples_rejected(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor)
        monitor.observe(test_trace.samples[5])
        with pytest.raises(ValueError):
            monitor.observe(test_trace.samples[3])

    def test_reset_clears_state(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor)
        monitor.observe(test_trace.samples[0])
        monitor.reset()
        assert monitor.num_samples == 0
        assert monitor.predictions == []

    def test_predicted_series_shape(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor)
        for sample in test_trace.samples[:10]:
            monitor.observe(sample)
        assert monitor.predicted_series().shape == (10,)

    def test_prediction_exposes_crash_time_estimate(self, m5p_predictor, test_trace):
        monitor = OnlineAgingMonitor(m5p_predictor)
        prediction = monitor.observe(test_trace.samples[0])
        assert prediction.predicted_crash_time == pytest.approx(
            prediction.time_seconds + prediction.predicted_ttf_seconds
        )

    def test_validation(self, m5p_predictor):
        with pytest.raises(ValueError):
            OnlineAgingMonitor(AgingPredictor())
        with pytest.raises(ValueError):
            OnlineAgingMonitor(m5p_predictor, alarm_threshold_seconds=0.0)
        with pytest.raises(ValueError):
            OnlineAgingMonitor(m5p_predictor, alarm_consecutive=0)
