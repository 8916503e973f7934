"""Tests for dataset building, TTF labelling and the paper's accuracy measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import INFINITE_TTF_SECONDS, AgingDataset, build_dataset
from repro.core.evaluation import (
    PredictionEvaluation,
    evaluate_predictions,
    format_duration,
    soft_absolute_errors,
)
from repro.core.features import FeatureCatalog


class TestBuildDataset:
    def test_rows_match_trace_lengths(self, training_traces):
        dataset = build_dataset(training_traces)
        assert dataset.num_instances == sum(len(trace) for trace in training_traces)
        assert dataset.num_features == len(FeatureCatalog().feature_names)

    def test_crashed_traces_labelled_with_true_ttf(self, training_traces):
        trace = training_traces[0]
        dataset = build_dataset([trace])
        expected = trace.crash_time_seconds - trace.times()
        assert np.allclose(dataset.targets, expected)

    def test_healthy_trace_labelled_with_infinite_horizon(self, healthy_trace):
        dataset = build_dataset([healthy_trace])
        assert np.allclose(dataset.targets, INFINITE_TTF_SECONDS)

    def test_custom_infinite_horizon(self, healthy_trace):
        dataset = build_dataset([healthy_trace], infinite_ttf=5000.0)
        assert np.allclose(dataset.targets, 5000.0)

    def test_trace_ids_distinguish_sources(self, training_traces):
        dataset = build_dataset(training_traces)
        assert set(np.unique(dataset.trace_ids)) == {0, 1, 2}

    def test_times_preserved(self, training_traces):
        dataset = build_dataset([training_traces[0]])
        assert np.allclose(dataset.times, training_traces[0].times())

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            build_dataset([])

    def test_rejects_bad_horizon(self, healthy_trace):
        with pytest.raises(ValueError):
            build_dataset([healthy_trace], infinite_ttf=0.0)


class TestAgingDataset:
    def make_dataset(self):
        features = np.arange(12, dtype=float).reshape(4, 3)
        return AgingDataset(
            features=features,
            targets=np.array([4.0, 3.0, 2.0, 1.0]),
            feature_names=["a", "b", "c"],
            times=np.array([0.0, 15.0, 30.0, 45.0]),
        )

    def test_select_features_by_index(self):
        dataset = self.make_dataset().select_features([0, 2])
        assert dataset.feature_names == ["a", "c"]
        assert dataset.features.shape == (4, 2)

    def test_select_features_by_name(self):
        dataset = self.make_dataset().select_feature_names(["b"])
        assert dataset.feature_names == ["b"]
        assert np.allclose(dataset.features[:, 0], [1.0, 4.0, 7.0, 10.0])

    def test_select_unknown_name_raises(self):
        with pytest.raises(KeyError):
            self.make_dataset().select_feature_names(["missing"])

    def test_select_empty_raises(self):
        with pytest.raises(ValueError):
            self.make_dataset().select_features([])

    def test_concatenate(self):
        combined = AgingDataset.concatenate([self.make_dataset(), self.make_dataset()])
        assert combined.num_instances == 8
        assert combined.feature_names == ["a", "b", "c"]

    def test_concatenate_rejects_mismatched_columns(self):
        other = self.make_dataset().select_features([0])
        with pytest.raises(ValueError):
            AgingDataset.concatenate([self.make_dataset(), other])

    def test_concatenate_rejects_empty(self):
        with pytest.raises(ValueError):
            AgingDataset.concatenate([])

    def test_validation_of_shapes(self):
        with pytest.raises(ValueError):
            AgingDataset(
                features=np.zeros((3, 2)),
                targets=np.zeros(2),
                feature_names=["a", "b"],
                times=np.zeros(3),
            )
        with pytest.raises(ValueError):
            AgingDataset(
                features=np.zeros((3, 2)),
                targets=np.zeros(3),
                feature_names=["a"],
                times=np.zeros(3),
            )


class TestSoftErrors:
    def test_within_margin_counts_zero(self):
        errors = soft_absolute_errors([600.0], [630.0], security_margin=0.10)
        assert errors[0] == 0.0

    def test_outside_margin_counts_full_error(self):
        # The paper's example: 10 minutes real, 13 predicted -> 3-minute error
        # would exceed the 1-minute margin, so the full error counts.
        errors = soft_absolute_errors([600.0], [780.0], security_margin=0.10)
        assert errors[0] == pytest.approx(180.0)

    def test_zero_margin_equals_absolute_error(self):
        errors = soft_absolute_errors([100.0, 200.0], [90.0, 230.0], security_margin=0.0)
        assert np.allclose(errors, [10.0, 30.0])

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            soft_absolute_errors([1.0], [1.0], security_margin=-0.1)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            soft_absolute_errors([1.0, 2.0], [1.0])


class TestEvaluatePredictions:
    def test_perfect_prediction_gives_zero_everywhere(self):
        times = np.arange(0, 1500, 15, dtype=float)
        ttf = 1500.0 - times
        result = evaluate_predictions(times, ttf, ttf, crash_time=1500.0)
        assert result.mae_seconds == 0.0
        assert result.s_mae_seconds == 0.0
        assert result.pre_mae_seconds == 0.0
        assert result.post_mae_seconds == 0.0
        assert result.num_samples == times.size

    def test_smae_never_exceeds_mae(self, training_traces):
        times = np.arange(0, 3000, 15, dtype=float)
        true_ttf = 3000.0 - times
        rng = np.random.default_rng(0)
        predicted = true_ttf + rng.normal(0, 120, size=times.size)
        result = evaluate_predictions(times, true_ttf, predicted, crash_time=3000.0)
        assert result.s_mae_seconds <= result.mae_seconds

    def test_pre_and_post_split_at_ten_minutes_before_crash(self):
        times = np.arange(0, 1800, 15, dtype=float)
        true_ttf = 1800.0 - times
        predicted = np.where(times < 1200.0, true_ttf + 300.0, true_ttf)  # only early errors
        result = evaluate_predictions(times, true_ttf, predicted, crash_time=1800.0)
        assert result.pre_mae_seconds == pytest.approx(300.0)
        assert result.post_mae_seconds == pytest.approx(0.0)

    def test_crash_time_defaults_to_last_sample_plus_ttf(self):
        times = np.array([0.0, 15.0, 30.0])
        true_ttf = np.array([630.0, 615.0, 600.0])
        explicit = evaluate_predictions(times, true_ttf, true_ttf, crash_time=630.0)
        inferred = evaluate_predictions(times, true_ttf, true_ttf)
        assert explicit == inferred

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            evaluate_predictions([], [], [])
        with pytest.raises(ValueError):
            evaluate_predictions([1.0], [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            evaluate_predictions([1.0], [1.0], [1.0], post_window_seconds=0.0)

    def test_as_dict_and_summary(self):
        result = PredictionEvaluation(120.0, 60.0, 150.0, 30.0, 10)
        assert result.as_dict() == {"MAE": 120.0, "S-MAE": 60.0, "PRE-MAE": 150.0, "POST-MAE": 30.0}
        assert "MAE 2 min 0 secs" in result.summary()

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_smae_bounded_by_mae_property(self, seed):
        rng = np.random.default_rng(seed)
        times = np.arange(0, 900, 15, dtype=float)
        true_ttf = 900.0 - times
        predicted = np.abs(true_ttf + rng.normal(0, 200, times.size))
        result = evaluate_predictions(times, true_ttf, predicted, crash_time=900.0)
        assert result.s_mae_seconds <= result.mae_seconds + 1e-9
        assert result.mae_seconds >= 0.0


class TestFormatDuration:
    def test_minutes_and_seconds(self):
        assert format_duration(914.0) == "15 min 14 secs"

    def test_under_a_minute(self):
        assert format_duration(21.0) == "21 secs"

    def test_exact_minute(self):
        assert format_duration(120.0) == "2 min 0 secs"

    def test_rounding(self):
        assert format_duration(59.6) == "1 min 0 secs"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            format_duration(-1.0)
