"""The vectorised predict kernels against the row-at-a-time oracles, bit for bit.

``LinearRegressionModel``, ``M5PModelTree`` and ``RegressionTree`` predict
rows column by column (index-routed down the trees); M5P walks a single row
on Python floats.  Every path must reproduce the original scalar loops in
``tests/ml/oracle.py`` exactly -- compared as raw bytes, so even a ``-0.0``
for ``+0.0`` fails -- on randomly drawn, widely scaled rows, whatever the
memory layout of the input: one row, a batch, a view, a copy or a
Fortran-ordered matrix.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import AgingDataset
from repro.core.features import FeatureCatalog
from repro.core.predictor import AgingPredictor
from repro.ml.linear_regression import LinearRegressionModel
from repro.ml.m5p import M5PModelTree
from repro.ml.regression_tree import RegressionTree
from tests.ml import oracle

#: Per-column magnitudes of the synthetic features: raw megabytes next to
#: ``1/speed`` values in the millions, as in the Table 2 variables.
SCALES = np.array([1e-3, 1.0, 1e3, 1e6, 1.0, 10.0, 1e-6, 250.0])


def training_data(seed=0, rows=600):
    """Piecewise-linear targets over widely scaled columns, plus noise columns."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(rows, SCALES.size)) * SCALES
    regime = (x[:, 0] > 0).astype(float) + (x[:, 2] > 300.0)
    y = np.where(
        regime == 0,
        3.0 * x[:, 1] + 2e-3 * x[:, 3],
        np.where(regime == 1, -4.0 * x[:, 1] + 0.05 * x[:, 2] + 9.0, 7.0 * x[:, 5] - 40.0),
    )
    y = y + rng.normal(0.0, 0.05, size=rows)
    return x, y


def draw_rows(seed, rows, spread):
    """Rows at ``spread`` times the training scale, with some far outliers."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(rows, SCALES.size)) * SCALES * spread
    outliers = rng.random(x.shape) < 0.05
    x[outliers] *= 10.0 ** rng.integers(-6, 7, size=int(outliers.sum()))
    return x


def layouts(rows):
    """The same rows as a copy, a Fortran matrix, a column-sliced and a row-strided view."""
    wide = np.zeros((rows.shape[0], rows.shape[1] + 3))
    wide[:, 1 : rows.shape[1] + 1] = rows
    doubled = np.repeat(rows, 2, axis=0)
    return {
        "copy": rows.copy(),
        "fortran": np.asfortranarray(rows),
        "column_view": wide[:, 1 : rows.shape[1] + 1],
        "row_view": doubled[::2],
    }


def same_bits(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


TREE_VARIANTS = list(itertools.product((True, False), (True, False)))


@pytest.fixture(scope="module")
def m5p_trees():
    x, y = training_data()
    return {
        (smoothing, prune): M5PModelTree(min_instances=10, smoothing=smoothing, prune=prune).fit(x, y)
        for smoothing, prune in TREE_VARIANTS
    }


@pytest.fixture(scope="module")
def linear_models():
    x, y = training_data()
    return [
        LinearRegressionModel(eliminate_attributes=True).fit(x, y),
        LinearRegressionModel(eliminate_attributes=False).fit(x, y),
    ]


@pytest.fixture(scope="module")
def regression_tree():
    x, y = training_data()
    return RegressionTree(min_samples_leaf=10).fit(x, y)


def assert_matches_oracle(model, row_oracle, rows):
    expected = oracle.predict_rows(row_oracle, model, rows)
    for name, layout in layouts(rows).items():
        assert same_bits(model.predict(layout), expected), name
    for index in range(min(rows.shape[0], 12)):
        assert same_bits(model.predict(rows[index]), expected[index])
        assert same_bits(model.predict(rows[index : index + 1]), expected[index : index + 1])
        assert model.predict_one(rows[index]) == expected[index]


class TestM5PKernel:
    def test_the_trees_are_real_trees(self, m5p_trees):
        for (smoothing, prune), tree in m5p_trees.items():
            assert tree.num_inner_nodes >= 2, (smoothing, prune)
            models = [node.model for node in tree.root.iter_nodes()]
            # Node models drop attributes, so zero coefficients get skipped.
            assert any(0.0 in model.coefficients for model in models)

    @pytest.mark.parametrize("variant", TREE_VARIANTS, ids=lambda v: f"smooth={v[0]}-prune={v[1]}")
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 300),
        spread=st.sampled_from([0.5, 1.0, 1.5, 1e3]),
    )
    def test_batches_match_the_row_oracle(self, m5p_trees, variant, seed, rows, spread):
        assert_matches_oracle(m5p_trees[variant], oracle.m5p_row, draw_rows(seed, rows, spread))

    def test_rows_on_split_thresholds_route_like_the_oracle(self, m5p_trees):
        tree = m5p_trees[(True, True)]
        rows = draw_rows(3, 40, 1.0)
        for row, node in zip(rows, (n for n in tree.root.iter_nodes() if not n.is_leaf)):
            row[node.split_attribute] = node.split_value
        assert_matches_oracle(tree, oracle.m5p_row, rows)

    def test_empty_batch(self, m5p_trees):
        predictions = m5p_trees[(True, True)].predict(np.zeros((0, SCALES.size)))
        assert predictions.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, m5p_trees, bad):
        tree = m5p_trees[(True, True)]
        rows = draw_rows(5, 4, 1.0)
        rows[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            tree.predict(rows)
        with pytest.raises(ValueError, match="finite"):
            tree.predict(rows[2])

    def test_wrong_width_raises(self, m5p_trees):
        with pytest.raises(ValueError, match="features"):
            m5p_trees[(True, True)].predict(np.zeros((3, SCALES.size + 1)))


class TestLinearKernel:
    def test_elimination_leaves_zero_coefficients(self, linear_models):
        assert 0.0 in linear_models[0].coefficients

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 300),
        spread=st.sampled_from([0.5, 1.0, 1.5, 1e3]),
    )
    def test_batches_match_the_row_oracle(self, linear_models, seed, rows, spread):
        for model in linear_models:
            assert_matches_oracle(model, oracle.linear_row, draw_rows(seed, rows, spread))

    def test_a_model_without_terms_predicts_its_intercept(self):
        x = np.zeros((50, 2))
        model = LinearRegressionModel().fit(x, np.full(50, 4.5))
        assert not model.coefficients.any()
        assert same_bits(model.predict(np.ones((3, 2))), np.full(3, model.intercept))
        assert same_bits(model.predict(np.ones(2)), model.intercept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, linear_models, bad):
        rows = draw_rows(6, 3, 1.0)
        rows[0, 0] = bad
        for model in linear_models:
            with pytest.raises(ValueError, match="finite"):
                model.predict(rows)
            with pytest.raises(ValueError, match="finite"):
                model.predict_one(rows[0])


class TestRegressionTreeKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(2, 300),
        spread=st.sampled_from([0.5, 1.0, 1.5, 1e3]),
    )
    def test_batches_match_the_row_oracle(self, regression_tree, seed, rows, spread):
        assert_matches_oracle(regression_tree, oracle.tree_row, draw_rows(seed, rows, spread))

    def test_rows_on_split_thresholds_route_like_the_oracle(self, regression_tree):
        rows = draw_rows(4, 40, 1.0)
        for row, node in zip(rows, (n for n in regression_tree.root.iter_nodes() if not n.is_leaf)):
            row[node.split_attribute] = node.split_value
        assert_matches_oracle(regression_tree, oracle.tree_row, rows)

    def test_nan_rows_route_like_the_oracle(self, regression_tree):
        rows = draw_rows(7, 30, 1.0)
        rows[::3, 0] = np.nan
        rows[1::4, 2] = np.nan
        expected = oracle.predict_rows(oracle.tree_row, regression_tree, rows)
        assert same_bits(regression_tree.predict(rows), expected)


class TestPredictorPaths:
    """``AgingPredictor`` selects features and clips once for every path."""

    @pytest.fixture(scope="class")
    def catalogue_data(self):
        names = FeatureCatalog().feature_names
        rng = np.random.default_rng(11)
        column_scales = SCALES[np.arange(len(names)) % SCALES.size]
        features = rng.uniform(0.0, 1.0, size=(240, len(names))) * column_scales
        targets = np.where(
            features[:, 9] > 0.5,
            6000.0 - 3e-3 * features[:, 3],
            500.0 + 2e-3 * features[:, 3] + 800.0 * features[:, 9],
        )
        dataset = AgingDataset(
            features=features,
            targets=targets,
            feature_names=list(names),
            times=np.arange(240, dtype=float),
        )
        rows = rng.uniform(-0.5, 1.5, size=(64, len(names))) * column_scales
        return names, dataset, rows

    @pytest.mark.parametrize("model", ["m5p", "linear", "tree"])
    @pytest.mark.parametrize("selected", [None, 12], ids=["all-features", "selected"])
    def test_every_path_matches_the_oracle(self, catalogue_data, model, selected):
        names, dataset, rows = catalogue_data
        feature_names = None if selected is None else names[1 : 1 + selected]
        predictor = AgingPredictor(
            model=model, min_instances=20, feature_names=feature_names
        ).fit_dataset(dataset)
        assert model == "linear" or predictor.num_inner_nodes >= 1
        row_oracle = {"m5p": oracle.m5p_row, "linear": oracle.linear_row, "tree": oracle.tree_row}[model]
        columns = [names.index(name) for name in predictor.feature_names]
        expected = np.clip(
            oracle.predict_rows(row_oracle, predictor.model, rows[:, columns]),
            0.0,
            predictor.infinite_ttf,
        )
        assert same_bits(predictor.predict_matrix(rows), expected)
        assert same_bits(predictor.predict_matrix(np.asfortranarray(rows)), expected)
        assert same_bits([predictor.predict_row(row) for row in rows], expected)
        full = AgingDataset(
            features=rows, targets=np.zeros(len(rows)), feature_names=list(names), times=np.zeros(len(rows))
        )
        assert same_bits(predictor.predict_dataset(full), expected)
