"""Tests for the on-line monitor and the prediction-board ensemble."""

import numpy as np
import pytest

from repro.core.ensemble import PredictionBoard
from repro.core.online import OnlineAgingMonitor
from repro.core.predictor import AgingPredictor


@pytest.fixture(scope="module")
def fitted_members(m5p_predictor, training_traces):
    """M5P, linear and tree members already fitted on the training traces.

    A board is fitted when its members are, so the tests that read a board
    share these; ``test_board_trains_all_members`` covers ``board.fit``.
    """
    others = [AgingPredictor(model=model).fit(training_traces) for model in ("linear", "tree")]
    return [m5p_predictor, *others]


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


class TestPredictionBoard:
    def test_board_trains_all_members(self, training_traces):
        board = PredictionBoard([AgingPredictor(model="m5p"), AgingPredictor(model="linear")])
        board.fit(training_traces)
        assert board.is_fitted

    def test_consensus_prediction_shape(self, fitted_members, test_trace):
        board = PredictionBoard(fitted_members)
        consensus = board.predict_trace(test_trace)
        assert consensus.shape == (len(test_trace),)
        members = board.member_predictions(test_trace)
        assert members.shape == (3, len(test_trace))

    def test_median_consensus_bounded_by_members(self, fitted_members, test_trace):
        board = PredictionBoard(fitted_members)
        members = board.member_predictions(test_trace)
        consensus = board.predict_trace(test_trace)
        assert np.all(consensus >= members.min(axis=0) - 1e-9)
        assert np.all(consensus <= members.max(axis=0) + 1e-9)

    def test_mean_consensus_differs_from_median(self, fitted_members, test_trace):
        median_board = PredictionBoard(fitted_members, consensus="median")
        mean_board = PredictionBoard(fitted_members, consensus="mean")
        # Members are shared and already fitted, so both boards are fitted.
        assert median_board.is_fitted and mean_board.is_fitted
        assert not np.allclose(median_board.predict_trace(test_trace), mean_board.predict_trace(test_trace))

    def test_board_evaluation(self, fitted_members, test_trace):
        board = PredictionBoard(fitted_members[:2])
        consensus_eval = board.evaluate_trace(test_trace)
        member_evals = board.evaluate_members(test_trace)
        assert len(member_evals) == 2
        assert consensus_eval.mae_seconds <= max(e.mae_seconds for e in member_evals) + 1e-9

    def test_unfitted_board_rejects_prediction(self, test_trace):
        board = PredictionBoard([AgingPredictor(model="m5p")])
        with pytest.raises(RuntimeError):
            board.predict_trace(test_trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            PredictionBoard([])
        with pytest.raises(ValueError):
            PredictionBoard([AgingPredictor()], consensus="vote")

    def test_evaluation_requires_crash(self, training_traces, healthy_trace):
        board = PredictionBoard([AgingPredictor(model="linear")]).fit(training_traces)
        with pytest.raises(ValueError):
            board.evaluate_trace(healthy_trace)
