"""Reference learners: the code the predict kernels and the node fit replaced.

The row-at-a-time predictors are the original scalar implementations of
``LinearRegressionModel``, ``M5PModelTree`` and ``RegressionTree``
prediction, kept only as oracles.  Each row is predicted on its own: the
linear model sums ``value * coefficient`` over *every* feature in order (zero
coefficients included), and the M5P tree walks the root path and smooths
back up it one node at a time.  The vectorised kernels must reproduce them
bit for bit.

:func:`masked_fit` is the original restricted node fit: M5P zeroed every
column a node may not use and fitted the full-width copy, so greedy
elimination began with every column.  The :func:`masked_node_fits` fixture
swaps it in for ``LinearRegressionModel.fit``, so a whole tree can be fitted
through it and compared with the direct fit on the allowed columns.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.ml.linear_regression import LinearRegressionModel

_SMOOTHING_CONSTANT = 15.0
_DIRECT_FIT = LinearRegressionModel.fit


def linear_row(model, row: np.ndarray) -> float:
    """One row through a fitted ``LinearRegressionModel``, term by term."""
    total = 0.0
    for value, coefficient in zip(np.asarray(row, dtype=float).tolist(), model.coefficients.tolist()):
        total += value * coefficient
    return total + model.intercept


def m5p_row(tree, row: np.ndarray) -> float:
    """One row through a fitted ``M5PModelTree``: leaf model, then smoothing."""
    path = []
    node = tree.root
    while not node.is_leaf:
        path.append(node)
        node = node.left if row[node.split_attribute] <= node.split_value else node.right
    prediction = linear_row(node.model, row)
    if not tree.smoothing:
        return prediction
    child_samples = node.num_samples
    for ancestor in reversed(path):
        ancestor_prediction = linear_row(ancestor.model, row)
        prediction = (child_samples * prediction + _SMOOTHING_CONSTANT * ancestor_prediction) / (
            child_samples + _SMOOTHING_CONSTANT
        )
        child_samples = ancestor.num_samples
    return prediction


def tree_row(tree, row: np.ndarray) -> float:
    """One row through a fitted ``RegressionTree``: the leaf's constant."""
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.split_attribute] <= node.split_value else node.right
    return node.value


def predict_rows(row_predictor, model, rows: np.ndarray) -> np.ndarray:
    """Predict a matrix one row at a time with one of the oracles above."""
    return np.array([row_predictor(model, row) for row in np.asarray(rows, dtype=float)])


def masked_fit(model, features, targets, attributes=None):
    """Fit ``model`` on a copy of ``features`` with every column outside ``attributes`` zeroed."""
    x = np.asarray(features, dtype=float)
    if attributes is None or len(attributes) == x.shape[1]:
        return _DIRECT_FIT(model, x, targets)
    masked = np.zeros_like(x)
    masked[:, list(attributes)] = x[:, list(attributes)]
    return _DIRECT_FIT(model, masked, targets)


@pytest.fixture
def masked_node_fits(monkeypatch):
    """A context manager that runs every ``LinearRegressionModel.fit`` through :func:`masked_fit`.

    On exit it asserts that at least one fit was restricted to fewer columns
    than the data has, so a test cannot pass by comparing the direct fit
    with itself.
    """

    @contextlib.contextmanager
    def swapped():
        restricted = []

        def fit(model, features, targets, attributes=None):
            if attributes is not None and len(attributes) < np.shape(features)[1]:
                restricted.append(len(attributes))
            return masked_fit(model, features, targets, attributes)

        with monkeypatch.context() as patch:
            patch.setattr(LinearRegressionModel, "fit", fit)
            yield
        assert restricted, "no restricted fit went through the masked oracle"

    return swapped
