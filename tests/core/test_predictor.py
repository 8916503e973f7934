"""Tests for the AgingPredictor facade, feature selection and root cause."""

import numpy as np
import pytest

from repro.core.dataset import build_dataset
from repro.core.feature_selection import VARIABLE_GROUPS, select_by_group, select_heap_variables
from repro.core.features import FeatureCatalog
from repro.core.predictor import AgingPredictor
from repro.core.root_cause import analyse_root_cause
from repro.ml.m5p import M5PModelTree


class TestAgingPredictorTraining:
    def test_fit_and_predict_shapes(self, m5p_predictor, test_trace):
        predictions = m5p_predictor.predict_trace(test_trace)
        assert predictions.shape == (len(test_trace),)
        assert np.all(np.isfinite(predictions))

    def test_training_instance_count_matches_traces(self, m5p_predictor, training_traces):
        assert m5p_predictor.num_training_instances == sum(len(trace) for trace in training_traces)

    def test_model_size_reported_for_trees(self, m5p_predictor):
        assert m5p_predictor.num_leaves >= 1
        assert m5p_predictor.num_inner_nodes == m5p_predictor.num_leaves - 1

    def test_linear_model_has_no_tree_size(self, training_traces):
        predictor = AgingPredictor(model="linear").fit(training_traces)
        assert predictor.num_leaves is None
        assert predictor.num_inner_nodes is None

    def test_all_three_model_families_fit(self, m5p_predictor, training_traces, test_trace):
        others = [AgingPredictor(model=model).fit(training_traces) for model in ("linear", "tree")]
        for predictor in [m5p_predictor, *others]:
            evaluation = predictor.evaluate_trace(test_trace)
            assert evaluation.mae_seconds >= 0.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            AgingPredictor(model="neural")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            AgingPredictor(min_instances=0)
        with pytest.raises(ValueError):
            AgingPredictor(infinite_ttf=-1.0)

    def test_unfitted_usage_raises(self, test_trace):
        predictor = AgingPredictor()
        assert not predictor.is_fitted
        with pytest.raises(RuntimeError):
            predictor.predict_trace(test_trace)
        with pytest.raises(RuntimeError):
            _ = predictor.feature_names


class TestAgingPredictorQuality:
    def test_predictions_clipped_to_valid_range(self, m5p_predictor, test_trace):
        predictions = m5p_predictor.predict_trace(test_trace)
        assert predictions.min() >= 0.0
        assert predictions.max() <= m5p_predictor.infinite_ttf

    def test_m5p_accuracy_is_reasonable_near_the_crash(self, m5p_predictor, test_trace):
        evaluation = m5p_predictor.evaluate_trace(test_trace)
        # Near the crash the paper reports errors of a few minutes; on the
        # scaled-down testbed we only require the POST error to stay within
        # ten minutes to keep the test robust to simulator tweaks.
        assert evaluation.post_mae_seconds < 600.0

    def test_post_mae_smaller_than_pre_mae_for_m5p(self, m5p_predictor, test_trace):
        evaluation = m5p_predictor.evaluate_trace(test_trace)
        assert evaluation.post_mae_seconds < evaluation.pre_mae_seconds

    def test_evaluation_requires_crashed_trace(self, training_traces, healthy_trace):
        predictor = AgingPredictor(model="linear").fit(training_traces)
        with pytest.raises(ValueError):
            predictor.evaluate_trace(healthy_trace)

    def test_healthy_trace_predicted_far_from_failure(
        self, m5p_predictor, training_traces, healthy_trace
    ):
        # Skip the first window marks where speeds are still settling.
        predictions = m5p_predictor.predict_trace(healthy_trace)[12:]
        crashed_predictions = m5p_predictor.predict_trace(training_traces[0])[-10:]
        assert np.median(predictions) > np.median(crashed_predictions)

    def test_describe_model_mentions_features(self, m5p_predictor):
        assert "LM (" in m5p_predictor.describe_model()


class TestFeatureSubsets:
    def test_predictor_with_feature_subset(self, training_traces, test_trace):
        heap_features = select_heap_variables()
        predictor = AgingPredictor(model="m5p", feature_names=heap_features).fit(training_traces)
        assert set(predictor.feature_names) == set(heap_features)
        predictions = predictor.predict_trace(test_trace)
        assert predictions.shape == (len(test_trace),)

    def test_fit_dataset_path(self, training_traces, test_trace):
        dataset = build_dataset(training_traces)
        predictor = AgingPredictor(model="linear").fit_dataset(dataset)
        test_dataset = build_dataset([test_trace])
        predictions = predictor.predict_dataset(test_dataset)
        assert predictions.shape == (len(test_trace),)


class TestFeatureSelection:
    def test_groups_cover_expected_tags(self):
        assert set(VARIABLE_GROUPS) == {"heap", "memory", "threads", "workload", "system"}

    def test_heap_selection_contains_only_heap_variables(self):
        catalog = FeatureCatalog()
        names = select_heap_variables(catalog)
        tags = catalog.feature_tags
        assert names
        assert all("heap" in tags[name] for name in names)
        assert "num_threads" not in names

    def test_unknown_group_rejected(self):
        with pytest.raises(KeyError):
            select_by_group("gpu")


def _non_heap_features():
    """The Experiment 4.1 variable set: everything except the heap internals.

    Without the heap zones the time to failure is not a near-linear function
    of a single derived variable, so the fitted M5P tree keeps real splits --
    which is what the root-cause inspection needs.
    """
    catalog = FeatureCatalog()
    heap_names = set(select_heap_variables(catalog))
    return [name for name in catalog.feature_names if name not in heap_names]


@pytest.fixture(scope="module")
def non_heap_m5p(training_traces):
    """M5P on the Experiment 4.1 variable set, shared by the read-only tests."""
    return AgingPredictor(model="m5p", feature_names=_non_heap_features()).fit(training_traces)


class TestRootCause:
    def test_memory_leak_model_implicates_memory(self, non_heap_m5p):
        report = analyse_root_cause(non_heap_m5p.model)
        assert report.primary_resource in ("memory", "heap", "system")
        assert report.variables, "a fitted tree should test at least one variable"
        # The variable tested at the root of the tree must appear in the report.
        assert any(variable.shallowest_depth == 0 for variable in report.variables)

    def test_thread_leak_model_implicates_threads(self, thread_leak_trace, training_traces):
        predictor = AgingPredictor(model="m5p", feature_names=_non_heap_features()).fit(
            [thread_leak_trace] + list(training_traces)
        )
        report = analyse_root_cause(predictor.model)
        resource_names = [name for name, _score in report.resources]
        assert "threads" in resource_names or "memory" in resource_names

    def test_single_leaf_tree_reports_no_clue(self, m5p_predictor):
        # With the heap variables included the relationship is almost linear,
        # so pruning can collapse the whole tree; the report must stay usable.
        report = analyse_root_cause(m5p_predictor.model)
        if not report.variables:
            assert report.primary_resource == "unknown"
            assert "no root-cause clue" in report.summary()

    def test_summary_is_informative(self, non_heap_m5p):
        summary = analyse_root_cause(non_heap_m5p.model).summary()
        assert "implicated resources" in summary

    def test_requires_fitted_model(self):
        with pytest.raises(ValueError):
            analyse_root_cause(M5PModelTree())

    def test_works_with_plain_regression_tree(self, training_traces):
        predictor = AgingPredictor(model="tree", feature_names=_non_heap_features()).fit(training_traces)
        report = analyse_root_cause(predictor.model)
        assert report.resources
