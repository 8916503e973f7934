"""Row-at-a-time reference predictors: the loops the predict kernels replaced.

These are the original scalar implementations of ``LinearRegressionModel``,
``M5PModelTree`` and ``RegressionTree`` prediction, kept only as oracles.
Each row is predicted on its own: the linear model sums ``value *
coefficient`` over *every* feature in order (zero coefficients included),
and the M5P tree walks the root path and smooths back up it one node at a
time.  The vectorised kernels must reproduce them bit for bit.
"""

from __future__ import annotations

import numpy as np

_SMOOTHING_CONSTANT = 15.0


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
