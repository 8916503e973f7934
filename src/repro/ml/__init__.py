"""From-scratch machine-learning algorithms used by the aging predictor.

The paper relies on WEKA's M5P model-tree learner and its linear-regression
implementation.  Neither WEKA nor scikit-learn is a dependency of this
reproduction: every learner is implemented here on top of numpy so the whole
pipeline (splitting criteria, pruning, smoothing, attribute elimination) is
inspectable and testable.

Public learners
---------------
``LinearRegressionModel``
    Ordinary least squares with optional greedy attribute elimination, the
    paper's baseline (Tables 3 and 4).
``RegressionTree``
    A CART-style variance-reduction regression tree with constant leaves,
    the second baseline evaluated in the authors' preliminary work [14].
``M5PModelTree``
    The paper's chosen learner: a binary decision tree whose leaves hold
    linear models, grown with the standard-deviation-reduction criterion,
    pruned bottom-up and optionally smoothed.
``NaiveSlopePredictor``
    The analytic Equation (1) predictor: remaining resource divided by the
    recent consumption speed.
"""

from repro.ml.linear_regression import LinearRegressionModel
from repro.ml.m5p import M5PModelTree
from repro.ml.naive import NaiveSlopePredictor
from repro.ml.regression_tree import RegressionTree

__all__ = [
    "LinearRegressionModel",
    "M5PModelTree",
    "NaiveSlopePredictor",
    "RegressionTree",
]
