"""Tests for the M5P model-tree learner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import AgingPredictor
from repro.experiments.cluster import generate_cluster_training_traces
from repro.experiments.scenarios import ClusterScenario
from repro.ml.linear_regression import LinearRegressionModel
from repro.ml.m5p import M5PModelTree, _best_sdr_split, _error_adjustment
from tests.ml.oracle import masked_node_fits


def make_piecewise_linear(rows=600, seed=0, noise=0.0):
    """Two linear regimes controlled by x0: the canonical M5P use case."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, size=(rows, 3))
    y = np.where(
        x[:, 0] < 0,
        5.0 * x[:, 1] + 100.0,
        -3.0 * x[:, 1] + 10.0,
    )
    if noise:
        y = y + rng.normal(0, noise, size=rows)
    return x, y


class TestFitAndPredict:
    def test_learns_piecewise_linear_function(self):
        x, y = make_piecewise_linear()
        tree = M5PModelTree(min_instances=10).fit(x, y)
        checks = np.array([[-5.0, 2.0, 0.0], [5.0, 2.0, 0.0]])
        expected = np.array([5.0 * 2.0 + 100.0, -3.0 * 2.0 + 10.0])
        assert np.allclose(tree.predict(checks), expected, atol=5.0)

    def test_beats_plain_linear_regression_on_piecewise_data(self):
        x, y = make_piecewise_linear(noise=1.0)
        tree = M5PModelTree(min_instances=10).fit(x, y)
        linreg = LinearRegressionModel().fit(x, y)
        tree_mae = float(np.mean(np.abs(tree.predict(x) - y)))
        linreg_mae = float(np.mean(np.abs(linreg.predict(x) - y)))
        assert tree_mae < linreg_mae / 2.0

    def test_pure_linear_data_collapses_to_a_single_leaf(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-10, 10, size=(300, 2))
        y = 2.0 * x[:, 0] + 3.0 * x[:, 1] + 1.0
        tree = M5PModelTree(min_instances=10).fit(x, y)
        # Pruning compares each subtree against its node's linear model; on
        # purely linear data the root model is exact, so the whole tree should
        # collapse and predictions should be near-perfect.
        assert tree.num_leaves == 1
        assert np.allclose(tree.predict(x), y, atol=1e-2)

    def test_predict_one_returns_float(self):
        x, y = make_piecewise_linear(rows=200)
        tree = M5PModelTree().fit(x, y)
        assert isinstance(tree.predict_one(x[0]), float)

    def test_constant_target(self):
        x = np.random.default_rng(0).uniform(0, 1, size=(60, 2))
        y = np.full(60, 9.0)
        tree = M5PModelTree().fit(x, y)
        assert tree.num_leaves == 1
        assert tree.predict_one([0.3, 0.3]) == pytest.approx(9.0, abs=1e-6)


def allowed_attributes(tree):
    """Each node with the columns M5 lets its model use: subtree and path tests.

    A one-node tree may use every column.
    """
    every = set(range(len(tree.attribute_names)))
    stack = [(tree.root, frozenset())]
    while stack:
        node, path = stack.pop()
        yield node, (node.subtree_attributes | path) or every
        if not node.is_leaf:
            below = path | {node.split_attribute}
            stack += [(node.left, below), (node.right, below)]


def node_models(tree):
    """Every node's split and linear model, as exact hex strings."""
    return [
        (
            node.split_attribute,
            float(node.split_value).hex(),
            node.model.selected_attributes,
            [float(c).hex() for c in node.model.coefficients],
            float(node.model.intercept).hex(),
            float(node.model.training_sse).hex(),
        )
        for node in tree.root.iter_nodes()
    ]


class TestNodeModelAttributes:
    @pytest.mark.parametrize("seed", range(6))
    def test_node_models_keep_only_allowed_attributes(self, seed):
        # A TTF-like target: capped (constant) on half the space, linear on
        # the other, so some leaves see a constant target.
        rng = np.random.default_rng(seed)
        x = rng.uniform(size=(240, 8))
        y = np.where(x[:, 0] <= 0.5, 10_800.0, 10_800.0 - 9_000.0 * (x[:, 0] - 0.5) - 500.0 * x[:, 1])
        tree = M5PModelTree(min_instances=10).fit(x, y)
        for node, allowed in allowed_attributes(tree):
            assert set(node.model.selected_attributes) <= allowed
            outside = [column for column in range(8) if column not in allowed]
            assert not node.model.coefficients[outside].any()


class TestMaskedFitOracle:
    """The direct node fit against the masked-copy fit it replaced (``tests/ml/oracle.py``).

    Only the fast ``memory`` fleet's training set is used: its elimination
    decisions are at least 2.4e-5 apart in relative terms, so no BLAS build
    can flip one of them.
    """

    @pytest.fixture(scope="class")
    def memory_traces(self):
        return generate_cluster_training_traces(ClusterScenario.fast())

    def test_tree_matches_the_masked_fit_bit_for_bit(self, memory_traces, masked_node_fits):
        direct = AgingPredictor(model="m5p").fit(memory_traces).model
        with masked_node_fits():
            masked = AgingPredictor(model="m5p").fit(memory_traces).model
        assert node_models(direct) == node_models(masked)

    def test_node_fits_solve_only_allowed_columns(self, memory_traces, monkeypatch):
        solved = {}
        solve = LinearRegressionModel._solve

        def recording(model, x, y, columns):
            solved.setdefault(model, []).append(list(columns))
            return solve(model, x, y, columns)

        monkeypatch.setattr(LinearRegressionModel, "_solve", recording)
        tree = AgingPredictor(model="m5p").fit(memory_traces).model
        for node, allowed in allowed_attributes(tree):
            for columns in solved[node.model]:
                assert set(columns) <= allowed
        assert sum(len(calls) for calls in solved.values()) <= 400


class TestStructure:
    def test_leaf_inner_relationship(self):
        x, y = make_piecewise_linear()
        tree = M5PModelTree(min_instances=10).fit(x, y)
        assert tree.num_leaves == tree.num_inner_nodes + 1

    def test_min_instances_respected(self):
        x, y = make_piecewise_linear(rows=300)
        tree = M5PModelTree(min_instances=25).fit(x, y)
        for node in tree.root.iter_nodes():
            if node.is_leaf:
                assert node.num_samples >= 25

    def test_root_split_is_regime_variable(self):
        x, y = make_piecewise_linear()
        tree = M5PModelTree(attribute_names=["regime", "driver", "noise"]).fit(x, y)
        assert tree.attribute_names[tree.root.split_attribute] == "regime"
        assert abs(tree.root.split_value) < 1.5

    def test_split_attribute_levels_reports_shallowest_depth(self):
        x, y = make_piecewise_linear()
        tree = M5PModelTree(attribute_names=["regime", "driver", "noise"]).fit(x, y)
        levels = tree.split_attribute_levels()
        assert levels["regime"] == 0

    def test_split_attribute_counts_nonempty(self):
        x, y = make_piecewise_linear()
        tree = M5PModelTree().fit(x, y)
        assert sum(tree.split_attribute_counts().values()) == tree.num_inner_nodes


class TestPruningAndSmoothing:
    def test_pruning_reduces_or_keeps_leaf_count(self):
        x, y = make_piecewise_linear(noise=3.0)
        pruned = M5PModelTree(min_instances=10, prune=True).fit(x, y)
        unpruned = M5PModelTree(min_instances=10, prune=False).fit(x, y)
        assert pruned.num_leaves <= unpruned.num_leaves

    def test_smoothing_changes_predictions_near_boundaries(self):
        x, y = make_piecewise_linear()
        smoothed = M5PModelTree(min_instances=10, smoothing=True).fit(x, y)
        raw = M5PModelTree(min_instances=10, smoothing=False).fit(x, y)
        boundary_row = np.array([0.01, 5.0, 0.0])
        # Smoothing blends the leaf model with ancestor models, so the two
        # predictions generally differ near the regime boundary.
        assert smoothed.predict_one(boundary_row) != pytest.approx(
            raw.predict_one(boundary_row), abs=1e-9
        ) or smoothed.num_leaves == 1

    def test_smoothing_preserves_good_fit(self):
        x, y = make_piecewise_linear()
        tree = M5PModelTree(min_instances=10, smoothing=True).fit(x, y)
        mae = float(np.mean(np.abs(tree.predict(x) - y)))
        assert mae < 10.0


class TestValidation:
    def test_rejects_bad_min_instances(self):
        with pytest.raises(ValueError):
            M5PModelTree(min_instances=0)

    def test_rejects_bad_std_fraction(self):
        with pytest.raises(ValueError):
            M5PModelTree(min_std_fraction=1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            M5PModelTree().fit(np.array([[np.nan, 1.0]]), np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            M5PModelTree().fit(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_mismatched_names(self):
        x, y = make_piecewise_linear(rows=100)
        with pytest.raises(ValueError):
            M5PModelTree(attribute_names=["only_one"]).fit(x, y)

    def test_unfitted_access_raises(self):
        tree = M5PModelTree()
        with pytest.raises(RuntimeError):
            tree.predict([[1.0]])
        with pytest.raises(RuntimeError):
            _ = tree.num_leaves


class TestDescribe:
    def test_describe_shows_linear_models_and_splits(self):
        x, y = make_piecewise_linear()
        tree = M5PModelTree(attribute_names=["regime", "driver", "noise"]).fit(x, y)
        text = tree.describe()
        assert "LM (" in text
        assert "regime" in text


class TestHelpers:
    def test_error_adjustment_grows_with_parameters(self):
        assert _error_adjustment(100, 10) > _error_adjustment(100, 2)

    def test_error_adjustment_degenerate_case(self):
        assert _error_adjustment(3, 5) == pytest.approx(8.0)

    def test_best_sdr_split_constant_target(self):
        x = np.arange(40, dtype=float).reshape(-1, 1)
        y = np.full(40, 2.0)
        assert _best_sdr_split(x, y, min_instances=4) is None

    def test_best_sdr_split_finds_step(self):
        x = np.arange(40, dtype=float).reshape(-1, 1)
        y = np.where(x[:, 0] < 20, 0.0, 10.0)
        attribute, threshold = _best_sdr_split(x, y, min_instances=4)
        assert attribute == 0
        assert 19.0 <= threshold <= 20.0


class TestProperties:
    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_structure_invariants_hold_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5, 5, size=(120, 3))
        y = np.where(x[:, 0] < 0, x[:, 1] * 2, x[:, 2] * -3) + rng.normal(0, 0.2, 120)
        tree = M5PModelTree(min_instances=10).fit(x, y)
        assert tree.num_leaves == tree.num_inner_nodes + 1
        assert np.all(np.isfinite(tree.predict(x)))

    @given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_target_shift_shifts_predictions(self, shift):
        x, y = make_piecewise_linear(rows=200, seed=7)
        base = M5PModelTree(min_instances=10).fit(x, y)
        shifted = M5PModelTree(min_instances=10).fit(x, y + shift)
        rows = x[:20]
        assert np.allclose(shifted.predict(rows), base.predict(rows) + shift, atol=1e-3, rtol=1e-3)
