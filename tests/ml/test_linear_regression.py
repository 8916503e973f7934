"""Tests for the OLS linear regression with attribute elimination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.linear_regression import LinearRegressionModel


def make_linear_data(seed=0, rows=200, noise=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-10, 10, size=(rows, 3))
    y = 2.0 * x[:, 0] - 1.5 * x[:, 1] + 0.5 * x[:, 2] + 7.0
    if noise:
        y = y + rng.normal(0, noise, size=rows)
    return x, y


class TestFitting:
    def test_recovers_exact_coefficients(self):
        x, y = make_linear_data()
        model = LinearRegressionModel(eliminate_attributes=False).fit(x, y)
        assert model.coefficients == pytest.approx([2.0, -1.5, 0.5], abs=1e-6)
        assert model.intercept == pytest.approx(7.0, abs=1e-6)

    def test_predictions_match_targets_on_noiseless_data(self):
        x, y = make_linear_data()
        model = LinearRegressionModel().fit(x, y)
        assert np.allclose(model.predict(x), y, atol=1e-6)

    def test_predict_one_returns_float(self):
        x, y = make_linear_data()
        model = LinearRegressionModel().fit(x, y)
        prediction = model.predict_one(x[0])
        assert isinstance(prediction, float)
        assert prediction == pytest.approx(y[0], abs=1e-6)

    def test_constant_target(self):
        x, _ = make_linear_data()
        y = np.full(x.shape[0], 42.0)
        model = LinearRegressionModel().fit(x, y)
        assert model.predict(x) == pytest.approx(np.full(x.shape[0], 42.0), abs=1e-6)

    def test_single_column(self):
        x = np.linspace(0, 10, 50).reshape(-1, 1)
        y = 3.0 * x[:, 0] + 1.0
        model = LinearRegressionModel().fit(x, y)
        assert model.predict_one([4.0]) == pytest.approx(13.0, abs=1e-6)

    def test_collinear_columns_do_not_explode(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 1, size=(100, 1))
        x = np.hstack([base, base * 2.0, base * 3.0])
        y = 5.0 * base[:, 0] + 1.0
        model = LinearRegressionModel().fit(x, y)
        assert np.all(np.isfinite(model.coefficients))
        assert np.allclose(model.predict(x), y, atol=1e-4)


class TestAttributeElimination:
    def test_drops_irrelevant_noise_column(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-5, 5, size=(300, 3))
        y = 4.0 * x[:, 0] + rng.normal(0, 0.01, size=300)
        model = LinearRegressionModel(eliminate_attributes=True).fit(x, y)
        assert 0 in model.selected_attributes
        assert model.num_parameters < 3

    def test_elimination_never_hurts_akaike_predictions_much(self):
        x, y = make_linear_data(noise=0.5)
        full = LinearRegressionModel(eliminate_attributes=False).fit(x, y)
        pruned = LinearRegressionModel(eliminate_attributes=True).fit(x, y)
        full_mae = float(np.mean(np.abs(full.predict(x) - y)))
        pruned_mae = float(np.mean(np.abs(pruned.predict(x) - y)))
        assert pruned_mae <= full_mae * 1.5 + 0.1


class TestAttributeRestriction:
    """``fit(x, y, attributes)`` never uses a column outside ``attributes``."""

    @staticmethod
    def five_columns(constant):
        rng = np.random.default_rng(4)
        x = rng.uniform(-10, 10, size=(120, 5))
        y = np.full(120, 10_800.0) if constant else 3.0 * x[:, 1] - 2.0 * x[:, 3] + 0.5 * x[:, 0] + 9.0
        return x, y

    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "linear"])
    def test_keeps_only_the_allowed_attributes(self, constant):
        x, y = self.five_columns(constant)
        model = LinearRegressionModel().fit(x, y, attributes=[1, 3])
        assert set(model.selected_attributes) <= {1, 3}
        for column in (0, 2, 4):
            assert model.coefficients[column] == 0.0
        assert model.predict(x).shape == (120,)

    def test_equals_the_fit_on_the_allowed_columns_alone(self):
        x, y = self.five_columns(constant=False)
        restricted = LinearRegressionModel().fit(x, y, attributes=[3, 1])
        alone = LinearRegressionModel().fit(x[:, [1, 3]], y)
        assert [float(c).hex() for c in restricted.coefficients[[1, 3]]] == [
            float(c).hex() for c in alone.coefficients
        ]
        assert float(restricted.intercept).hex() == float(alone.intercept).hex()
        assert float(restricted.training_sse).hex() == float(alone.training_sse).hex()

    def test_default_is_every_column(self):
        x, y = self.five_columns(constant=False)
        default = LinearRegressionModel().fit(x, y)
        explicit = LinearRegressionModel().fit(x, y, attributes=range(5))
        assert default.selected_attributes == explicit.selected_attributes
        assert np.array_equal(default.coefficients, explicit.coefficients)

    @pytest.mark.parametrize(
        "attributes", [[], [1, 1], [-1, 2], [1, 5]], ids=["empty", "repeat", "negative", "too-high"]
    )
    def test_rejects_bad_attributes(self, attributes):
        x, y = self.five_columns(constant=False)
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(x, y, attributes=attributes)


class TestValidation:
    def test_rejects_unfitted_predict(self):
        with pytest.raises(RuntimeError):
            LinearRegressionModel().predict([[1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(np.zeros((0, 2)), np.zeros(0))

    def test_rejects_nan(self):
        x = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(x, np.array([1.0]))

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            LinearRegressionModel().fit(np.zeros((3, 2)), np.zeros(2))

    def test_rejects_wrong_prediction_width(self):
        x, y = make_linear_data()
        model = LinearRegressionModel().fit(x, y)
        with pytest.raises(ValueError):
            model.predict(np.zeros((2, 5)))

    def test_rejects_negative_ridge(self):
        with pytest.raises(ValueError):
            LinearRegressionModel(ridge=-1.0)

    def test_rejects_bad_name_count(self):
        x, y = make_linear_data()
        with pytest.raises(ValueError):
            LinearRegressionModel(attribute_names=["a"]).fit(x, y)


class TestDescribe:
    def test_describe_mentions_attribute_names(self):
        x, y = make_linear_data()
        model = LinearRegressionModel(
            eliminate_attributes=False, attribute_names=["mem", "threads", "load"]
        ).fit(x, y)
        description = model.describe()
        assert "mem" in description
        assert description.startswith("y = ")

    def test_describe_requires_fit(self):
        with pytest.raises(RuntimeError):
            LinearRegressionModel().describe()


class TestProperties:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=25, deadline=None)
    def test_recovers_random_one_dimensional_lines(self, seed, intercept, slope):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-100, 100, size=(40, 1))
        y = slope * x[:, 0] + intercept
        model = LinearRegressionModel().fit(x, y)
        checks = rng.uniform(-100, 100, size=(5, 1))
        expected = slope * checks[:, 0] + intercept
        assert np.allclose(model.predict(checks), expected, atol=1e-4, rtol=1e-4)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_prediction_is_affine_in_shift(self, seed):
        x, y = make_linear_data(seed=seed, rows=60)
        model_a = LinearRegressionModel(eliminate_attributes=False).fit(x, y)
        model_b = LinearRegressionModel(eliminate_attributes=False).fit(x, y + 100.0)
        assert np.allclose(model_b.predict(x), model_a.predict(x) + 100.0, atol=1e-5)
