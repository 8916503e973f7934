"""Ordinary least-squares linear regression with greedy attribute elimination.

This is the baseline the paper compares M5P against (Tables 3 and 4) and it is
also the building block used inside every M5P leaf.  The implementation
mirrors the behaviour of WEKA's ``LinearRegression`` closely enough for the
reproduction:

* the model is fitted by least squares on standardised attributes (a tiny
  ridge term keeps the normal equations well conditioned when attributes are
  collinear, which happens constantly with the Table 2 derived variables);
* attributes can be eliminated greedily using the Akaike information
  criterion, so the final model only keeps variables that pay for themselves
  -- this is what makes the per-leaf models of M5P small and readable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["LinearRegressionModel", "prediction_rows"]


def prediction_rows(features: Sequence[Sequence[float]], width: int) -> tuple[np.ndarray, bool]:
    """Validate the input of a ``predict``: rows of ``width`` finite features.

    Returns the rows as a 2-D float matrix and whether a single 1-D row was
    given (whose prediction is then returned as a scalar).
    """
    x = np.asarray(features, dtype=float)
    single = x.ndim == 1
    if single:
        x = x.reshape(1, -1)
    if x.ndim != 2:
        raise ValueError("features must be a row or a 2-D matrix")
    if x.shape[1] != width:
        raise ValueError(f"expected {width} features, got {x.shape[1]}")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    return x, single


def _candidate_attributes(attributes: Sequence[int] | None, width: int) -> list[int]:
    """The columns a fit may use, ascending: ``attributes`` checked, or all ``width``."""
    if attributes is None:
        return list(range(width))
    candidate = sorted(operator.index(column) for column in attributes)
    if not candidate:
        raise ValueError("attributes must name at least one column")
    if len(set(candidate)) != len(candidate):
        raise ValueError("attributes must not repeat a column")
    if candidate[0] < 0 or candidate[-1] >= width:
        raise ValueError(f"attributes must be columns in [0, {width})")
    return candidate


@dataclass
class _FittedState:
    """Internal container for everything produced by :meth:`fit`."""

    coefficients: np.ndarray
    intercept: float
    selected: list[int]
    attribute_names: list[str]
    training_rows: int
    training_sse: float
    #: ``(column, coefficient)`` for every coefficient that is not exactly
    #: ``0.0``, in ascending column order: what :meth:`evaluate` sums.
    terms: tuple[tuple[int, float], ...] = field(init=False)

    def __post_init__(self) -> None:
        self.terms = tuple(
            (int(column), float(self.coefficients[column])) for column in np.flatnonzero(self.coefficients)
        )


class LinearRegressionModel:
    """Least-squares linear model ``y = intercept + sum(coef_i * x_i)``.

    Parameters
    ----------
    eliminate_attributes:
        When true (the default, matching WEKA), attributes are greedily
        dropped while doing so improves the Akaike criterion
        ``SSE * (n + 2k) / n`` where *k* is the number of retained attributes.
    ridge:
        Small L2 regularisation added to the normal equations for numerical
        stability.  It is not meant as a tuning knob; the default keeps
        collinear derived variables from blowing up the coefficients.
    attribute_names:
        Optional names used by :meth:`describe`; defaults to ``x0..x{d-1}``.
    """

    def __init__(
        self,
        eliminate_attributes: bool = True,
        ridge: float = 1e-8,
        attribute_names: Sequence[str] | None = None,
    ) -> None:
        if ridge < 0:
            raise ValueError("ridge must be non-negative")
        self.eliminate_attributes = eliminate_attributes
        self.ridge = ridge
        self._given_names = list(attribute_names) if attribute_names is not None else None
        self._state: _FittedState | None = None

    # ------------------------------------------------------------------ fit

    def fit(
        self,
        features: Sequence[Sequence[float]],
        targets: Sequence[float],
        attributes: Sequence[int] | None = None,
    ) -> "LinearRegressionModel":
        """Fit the model on a feature matrix and a target vector.

        ``attributes`` lists the columns the model may use (default: every
        column); it must be non-empty, without repeats and within
        ``[0, d)``.  No other column enters the fit: their coefficients
        are exactly ``0.0`` and :attr:`selected_attributes` is a subset of
        ``attributes``, while the model still takes full-width rows.  M5P
        restricts each node's model this way.

        Rows with non-finite values are rejected with ``ValueError`` --
        upstream feature engineering is responsible for producing clean
        matrices, and silently dropping rows would skew time-to-failure
        labelling.
        """
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if y.ndim != 1:
            raise ValueError("targets must be a 1-D vector")
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and targets must have the same number of rows")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a linear model on zero rows")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("features and targets must be finite")

        names = self._resolve_names(x.shape[1])
        candidate = _candidate_attributes(attributes, x.shape[1])
        if self.eliminate_attributes and len(candidate) > 1:
            candidate, coefs, intercept, sse = self._greedy_eliminate(x, y, candidate)
        else:
            coefs, intercept, sse = self._solve(x, y, candidate)

        full_coefs = np.zeros(x.shape[1], dtype=float)
        for position, column in enumerate(candidate):
            full_coefs[column] = coefs[position]
        self._state = _FittedState(
            coefficients=full_coefs,
            intercept=intercept,
            selected=list(candidate),
            attribute_names=names,
            training_rows=x.shape[0],
            training_sse=sse,
        )
        return self

    def _resolve_names(self, dimension: int) -> list[str]:
        if self._given_names is None:
            return [f"x{i}" for i in range(dimension)]
        if len(self._given_names) != dimension:
            raise ValueError(
                f"attribute_names has {len(self._given_names)} entries but the data has {dimension} columns"
            )
        return list(self._given_names)

    def _solve(
        self, x: np.ndarray, y: np.ndarray, columns: Sequence[int]
    ) -> tuple[np.ndarray, float, float]:
        """Solve the (ridge-stabilised) normal equations on a column subset.

        Attributes are standardised (zero mean, unit variance) before solving
        so the ridge term treats wildly different feature scales -- raw
        megabytes next to ``1/speed`` values in the millions -- evenly; the
        returned coefficients are mapped back to the original scale.
        """
        if len(columns) == 0:
            intercept = float(np.mean(y))
            sse = float(np.sum((y - intercept) ** 2))
            return np.zeros(0), intercept, sse
        subset = x[:, list(columns)]
        means = subset.mean(axis=0)
        scales = subset.std(axis=0)
        scales = np.where(scales <= 1e-12, 1.0, scales)
        standardised = (subset - means) / scales
        design = np.column_stack([standardised, np.ones(standardised.shape[0])])
        gram = design.T @ design
        if self.ridge > 0:
            penalty = np.eye(design.shape[1]) * self.ridge * design.shape[0]
            penalty[-1, -1] = 0.0  # never penalise the intercept
            gram = gram + penalty
        try:
            solution = np.linalg.solve(gram, design.T @ y)
        except np.linalg.LinAlgError:
            solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        scaled_coefs = solution[:-1]
        coefs = scaled_coefs / scales
        intercept = float(solution[-1] - np.sum(scaled_coefs * means / scales))
        residuals = y - (subset @ coefs + intercept)
        return coefs, intercept, float(np.sum(residuals**2))

    def _akaike(self, sse: float, rows: int, attributes: int) -> float:
        """WEKA-style Akaike criterion used to decide attribute elimination."""
        effective = max(rows - attributes, 1)
        return sse * (rows + 2.0 * attributes) / effective

    def _greedy_eliminate(
        self, x: np.ndarray, y: np.ndarray, columns: list[int]
    ) -> tuple[list[int], np.ndarray, float, float]:
        current = list(columns)
        coefs, intercept, sse = self._solve(x, y, current)
        best_score = self._akaike(sse, x.shape[0], len(current))
        improved = True
        while improved and len(current) > 1:
            improved = False
            best_removal: tuple[float, int, np.ndarray, float, float] | None = None
            for column in current:
                trial = [c for c in current if c != column]
                trial_coefs, trial_intercept, trial_sse = self._solve(x, y, trial)
                score = self._akaike(trial_sse, x.shape[0], len(trial))
                if score < best_score and (best_removal is None or score < best_removal[0]):
                    best_removal = (score, column, trial_coefs, trial_intercept, trial_sse)
            if best_removal is not None:
                best_score, removed, coefs, intercept, sse = best_removal
                current = [c for c in current if c != removed]
                improved = True
        return current, coefs, intercept, sse

    # -------------------------------------------------------------- predict

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict targets for a feature matrix (or a single row).

        Every row is summed in the same order: ``0.0``, then
        ``+ x[column] * coefficient`` for each of the model's terms in
        ascending column order, then ``+ intercept``.  :meth:`evaluate` runs
        these operations column by column over all rows at once, so a row
        predicts bit-for-bit the same alone or in a batch, as a view or as a
        copy, C- or Fortran-ordered, and as one row summed on Python floats
        (M5P's one-row path).  A BLAS ``x @ coefficients`` must not replace
        this: its SIMD kernels pick accumulation orders from the operands'
        memory alignment, so the *same* row could predict differently as a
        view and as a copy -- poison for the streaming monitor, whose
        single-row predictions must match batch replays bit-for-bit.

        Terms whose coefficient is exactly ``0.0`` are skipped, which is exact
        only for finite input: the running sum starts at ``+0.0`` and can never
        become ``-0.0``, so adding ``x * 0.0 = +-0.0`` cannot change it, but
        ``inf * 0.0`` is NaN.  Non-finite features are therefore rejected
        with ``ValueError``, as :meth:`fit` rejects them.
        """
        state = self._require_fitted()
        x, single = prediction_rows(features, state.coefficients.shape[0])
        predictions = self.evaluate(x.T, np.zeros(x.shape[0]))
        return predictions[0] if single else predictions

    def evaluate(self, columns, total: float | np.ndarray = 0.0) -> float | np.ndarray:
        """The predict kernel: ``intercept + sum(columns[column] * coefficient)``.

        ``columns`` is indexed by feature column: either one row as a list of
        Python floats, or anything whose ``columns[j]`` is column ``j`` of the
        rows being predicted (``x.T``, or a gather of some rows), in which
        case ``total`` is a zero array of the row count and the result is an
        array.  Both run the same IEEE operations in the same order.  Input
        must be finite (see :meth:`predict`).
        """
        state = self._require_fitted()
        for column, coefficient in state.terms:
            total = total + columns[column] * coefficient
        return total + state.intercept

    def predict_one(self, row: Sequence[float]) -> float:
        """Predict a single row and return a plain float."""
        return float(self.predict(np.asarray(row, dtype=float)))

    # ----------------------------------------------------------- inspection

    def _require_fitted(self) -> _FittedState:
        if self._state is None:
            raise RuntimeError("the model has not been fitted yet")
        return self._state

    @property
    def is_fitted(self) -> bool:
        return self._state is not None

    @property
    def coefficients(self) -> np.ndarray:
        """Dense coefficient vector (zeros for eliminated attributes)."""
        return self._require_fitted().coefficients.copy()

    @property
    def intercept(self) -> float:
        return self._require_fitted().intercept

    @property
    def selected_attributes(self) -> list[int]:
        """Indices of attributes retained after greedy elimination."""
        return list(self._require_fitted().selected)

    @property
    def num_parameters(self) -> int:
        """Number of non-intercept terms kept in the model."""
        return len(self._require_fitted().selected)

    @property
    def training_sse(self) -> float:
        """Sum of squared errors on the training data."""
        return self._require_fitted().training_sse

    def describe(self, precision: int = 4) -> str:
        """Human-readable equation, e.g. ``y = 0.52*mem_speed + 12.1``."""
        state = self._require_fitted()
        terms: list[str] = []
        for column in state.selected:
            coefficient = state.coefficients[column]
            if abs(coefficient) < 10 ** (-precision):
                continue
            terms.append(f"{coefficient:+.{precision}g}*{state.attribute_names[column]}")
        terms.append(f"{state.intercept:+.{precision}g}")
        equation = " ".join(terms)
        return f"y = {equation}"
