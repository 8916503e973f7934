"""M5P model trees: binary trees with linear-regression leaves.

This is the learner the paper is built around (Section 2.2).  An M5P model is
a binary decision tree whose inner nodes test ``variable <= value`` and whose
leaves hold a linear model; the intuition is that a globally nonlinear
behaviour -- such as the time-to-failure of an aging application whose heap
periodically resizes -- is piecewise linear, and the tree's job is to find the
pieces.

The implementation follows Quinlan's M5 as refined by Wang & Witten (the M5'
algorithm WEKA ships as ``M5P``):

1. **Growing** -- nodes are split on the attribute/threshold pair that
   maximises the *standard deviation reduction*
   ``SDR = sd(T) - sum(|T_i|/|T| * sd(T_i))``; growth stops when a node holds
   fewer than twice the minimum leaf count or its standard deviation drops
   below 5 % of the root's.
2. **Linear models** -- every node receives a linear model fitted on its own
   rows, restricted to the attributes tested in the subtree below it (plus
   greedy Akaike elimination), so leaf models stay small and interpretable.
3. **Pruning** -- bottom-up, a subtree is replaced by its node's linear model
   whenever the model's *adjusted* error ``MAE * (n + v) / (n - v)`` is no
   worse than the subtree's adjusted error.
4. **Smoothing** -- predictions are filtered up the path to the root with
   ``p' = (n*p + k*q) / (n + k)`` (``k = 15``), which reduces discontinuities
   between adjacent leaves.

The paper trains M5P with 10 instances per leaf and reports the number of
leaves and inner nodes of every model; both are exposed here
(:attr:`M5PModelTree.num_leaves`, :attr:`M5PModelTree.num_inner_nodes`) so the
experiments can report the same model-size figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.ml.linear_regression import LinearRegressionModel, prediction_rows

__all__ = ["M5PModelTree", "M5Node"]

_SMOOTHING_CONSTANT = 15.0


@dataclass
class M5Node:
    """A node of the M5P tree.

    Every node keeps the linear model fitted on its training rows: leaves use
    it for prediction, inner nodes use it for pruning decisions and for
    smoothing predictions on the way back to the root.
    """

    num_samples: int
    depth: int
    mean: float
    std: float
    model: LinearRegressionModel | None = None
    split_attribute: int | None = None
    split_value: float = 0.0
    left: "M5Node | None" = None
    right: "M5Node | None" = None
    subtree_attributes: set[int] = field(default_factory=set)

    @property
    def is_leaf(self) -> bool:
        return self.split_attribute is None

    def iter_nodes(self) -> Iterator["M5Node"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        if self.left is not None:
            yield from self.left.iter_nodes()
        if self.right is not None:
            yield from self.right.iter_nodes()


class M5PModelTree:
    """M5P model-tree learner (the paper's prediction algorithm).

    Parameters
    ----------
    min_instances:
        Minimum number of training rows per leaf.  The paper uses 10.
    smoothing:
        Apply Quinlan's smoothing filter along the root path at prediction
        time (WEKA's default behaviour).
    prune:
        Perform bottom-up subtree replacement.  Disabling it yields the
        "unpruned" trees WEKA calls ``-N``; useful for ablations.
    min_std_fraction:
        Stop splitting once a node's target standard deviation falls below
        this fraction of the root's (0.05 in M5').
    attribute_names:
        Optional names used by :meth:`describe` and the root-cause analysis.
    """

    def __init__(
        self,
        min_instances: int = 10,
        smoothing: bool = True,
        prune: bool = True,
        min_std_fraction: float = 0.05,
        attribute_names: Sequence[str] | None = None,
    ) -> None:
        if min_instances < 1:
            raise ValueError("min_instances must be at least 1")
        if not 0.0 <= min_std_fraction < 1.0:
            raise ValueError("min_std_fraction must be in [0, 1)")
        self.min_instances = min_instances
        self.smoothing = smoothing
        self.prune = prune
        self.min_std_fraction = min_std_fraction
        self._given_names = list(attribute_names) if attribute_names is not None else None
        self._root: M5Node | None = None
        self._names: list[str] = []

    # ------------------------------------------------------------------ fit

    def fit(self, features: Sequence[Sequence[float]], targets: Sequence[float]) -> "M5PModelTree":
        """Grow, fit leaf models, prune and return the fitted tree."""
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("features must be 2-D and targets 1-D with matching row counts")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a model tree on zero rows")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("features and targets must be finite")
        self._names = self._resolve_names(x.shape[1])
        root_std = float(np.std(y))
        self._root = self._grow(x, y, depth=0, root_std=root_std)
        self._fit_models(self._root, x, y)
        if self.prune:
            self._prune(self._root, x, y)
        return self

    def _resolve_names(self, dimension: int) -> list[str]:
        if self._given_names is None:
            return [f"x{i}" for i in range(dimension)]
        if len(self._given_names) != dimension:
            raise ValueError("attribute_names length does not match the data")
        return list(self._given_names)

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int, root_std: float) -> M5Node:
        node = M5Node(
            num_samples=y.shape[0],
            depth=depth,
            mean=float(np.mean(y)),
            std=float(np.std(y)),
        )
        if self._should_stop(y, root_std):
            return node
        split = _best_sdr_split(x, y, self.min_instances)
        if split is None:
            return node
        attribute, threshold = split
        mask = x[:, attribute] <= threshold
        node.split_attribute = attribute
        node.split_value = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1, root_std)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, root_std)
        node.subtree_attributes = {attribute} | node.left.subtree_attributes | node.right.subtree_attributes
        return node

    def _should_stop(self, y: np.ndarray, root_std: float) -> bool:
        if y.shape[0] < 2 * self.min_instances:
            return True
        if float(np.std(y)) <= self.min_std_fraction * root_std:
            return True
        return False

    def _fit_models(
        self, node: M5Node, x: np.ndarray, y: np.ndarray, path_attributes: frozenset[int] = frozenset()
    ) -> None:
        """Fit a linear model at *every* node.

        Following M5, each node's model only uses attributes that are tested
        in the subtree below it or on the path leading to it.  Keeping the
        models small is what makes them readable and -- just as important for
        time-to-failure prediction -- keeps them from extrapolating wildly
        when a test run wanders outside the training region of a leaf.  A
        single-node tree (no splits anywhere) falls back to all attributes so
        it degenerates gracefully to plain linear regression.
        """
        relevant = node.subtree_attributes | path_attributes
        allowed = sorted(relevant) if relevant else list(range(x.shape[1]))
        node.model = _fit_restricted_model(x, y, allowed, self._names)
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        child_path = frozenset(path_attributes | {node.split_attribute})
        mask = x[:, node.split_attribute] <= node.split_value
        self._fit_models(node.left, x[mask], y[mask], child_path)
        self._fit_models(node.right, x[~mask], y[~mask], child_path)

    # -------------------------------------------------------------- pruning

    def _prune(self, node: M5Node, x: np.ndarray, y: np.ndarray) -> None:
        """Bottom-up subtree replacement by the node's own linear model."""
        if node.is_leaf:
            return
        assert node.left is not None and node.right is not None
        mask = x[:, node.split_attribute] <= node.split_value
        self._prune(node.left, x[mask], y[mask])
        self._prune(node.right, x[~mask], y[~mask])
        subtree_error = self._adjusted_subtree_error(node, x, y)
        model_error = self._adjusted_model_error(node, x, y)
        # The small tolerance makes the comparison robust to floating-point
        # and ridge-shrinkage noise when both errors are essentially zero
        # (purely linear data); it is negligible against any real error.
        tolerance = 1e-6 * max(node.std, abs(node.mean), 1.0)
        if model_error <= subtree_error + tolerance:
            node.split_attribute = None
            node.left = None
            node.right = None

    def _adjusted_model_error(self, node: M5Node, x: np.ndarray, y: np.ndarray) -> float:
        assert node.model is not None
        predictions = node.model.predict(x)
        mae = float(np.mean(np.abs(y - predictions)))
        return mae * _error_adjustment(y.shape[0], node.model.num_parameters)

    def _adjusted_subtree_error(self, node: M5Node, x: np.ndarray, y: np.ndarray) -> float:
        """Weighted adjusted error of the children, as used by M5 pruning."""
        assert node.left is not None and node.right is not None
        mask = x[:, node.split_attribute] <= node.split_value
        total = y.shape[0]
        error = 0.0
        for child, child_x, child_y in (
            (node.left, x[mask], y[mask]),
            (node.right, x[~mask], y[~mask]),
        ):
            if child_y.shape[0] == 0:
                continue
            if child.is_leaf:
                child_error = self._adjusted_model_error(child, child_x, child_y)
            else:
                child_error = self._adjusted_subtree_error(child, child_x, child_y)
            error += child_y.shape[0] / total * child_error
        return error

    # -------------------------------------------------------------- predict

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict targets for a matrix (or a single row vector).

        One row walks its root path on Python floats.  A batch is routed down
        the tree as index arrays: each node evaluates its linear model on the
        rows that reach it, column by column, and smoothing combines the
        results on the way back up.  Both paths run the same IEEE operations
        in the same order through :meth:`LinearRegressionModel.evaluate`, so
        a row predicts bit-for-bit the same alone or in any batch.  Input
        must be finite.
        """
        root = self._require_fitted()
        x, single = prediction_rows(features, len(self._names))
        if x.shape[0] == 1:
            predictions = np.array([self._predict_path(root, x[0].tolist())])
        else:
            predictions = self._predict_rows(root, x.T, np.arange(x.shape[0]))
        return predictions[0] if single else predictions

    def predict_one(self, row: Sequence[float]) -> float:
        return float(self.predict(np.asarray(row, dtype=float)))

    def _predict_path(self, root: M5Node, row: list[float]) -> float:
        """One row: walk to its leaf, then smooth back up the path."""
        path: list[M5Node] = []
        node = root
        while not node.is_leaf:
            path.append(node)
            node = node.left if row[node.split_attribute] <= node.split_value else node.right
        prediction = node.model.evaluate(row)
        if not self.smoothing:
            return prediction
        child_samples = node.num_samples
        for ancestor in reversed(path):
            prediction = (
                child_samples * prediction + _SMOOTHING_CONSTANT * ancestor.model.evaluate(row)
            ) / (child_samples + _SMOOTHING_CONSTANT)
            child_samples = ancestor.num_samples
        return prediction

    def _predict_rows(self, node: M5Node, columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """A batch: predictions of ``rows`` (indices into ``columns[j]``) below ``node``.

        The result is smoothed up to ``node`` but not past it, exactly as
        :meth:`_predict_path` has it on reaching ``node``.  Only the columns a
        model uses are gathered for its rows, never the whole row matrix.
        """
        if node.is_leaf:
            return node.model.evaluate(_Gather(columns, rows), np.zeros(rows.shape[0]))
        if self.smoothing:
            own = node.model.evaluate(_Gather(columns, rows), np.zeros(rows.shape[0]))
        goes_left = columns[node.split_attribute][rows] <= node.split_value
        predictions = np.empty(rows.shape[0])
        for child, chosen in ((node.left, goes_left), (node.right, ~goes_left)):
            if not chosen.any():
                continue
            below = self._predict_rows(child, columns, rows[chosen])
            if self.smoothing:
                below = (child.num_samples * below + _SMOOTHING_CONSTANT * own[chosen]) / (
                    child.num_samples + _SMOOTHING_CONSTANT
                )
            predictions[chosen] = below
        return predictions

    # ----------------------------------------------------------- inspection

    def _require_fitted(self) -> M5Node:
        if self._root is None:
            raise RuntimeError("the model tree has not been fitted yet")
        return self._root

    @property
    def is_fitted(self) -> bool:
        return self._root is not None

    @property
    def root(self) -> M5Node:
        return self._require_fitted()

    @property
    def attribute_names(self) -> list[str]:
        self._require_fitted()
        return list(self._names)

    @property
    def num_leaves(self) -> int:
        return sum(1 for node in self._require_fitted().iter_nodes() if node.is_leaf)

    @property
    def num_inner_nodes(self) -> int:
        return sum(1 for node in self._require_fitted().iter_nodes() if not node.is_leaf)

    @property
    def depth(self) -> int:
        return max(node.depth for node in self._require_fitted().iter_nodes())

    def split_attribute_counts(self) -> dict[str, int]:
        """Number of inner nodes testing each attribute."""
        counts: dict[str, int] = {}
        for node in self._require_fitted().iter_nodes():
            if node.is_leaf:
                continue
            name = self._names[node.split_attribute]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def split_attribute_levels(self) -> dict[str, int]:
        """Shallowest depth at which each attribute is tested.

        Section 4.4 of the paper inspects the first levels of the tree to
        identify the resources implicated in the failure; this map is the
        machine-readable version of that inspection.
        """
        levels: dict[str, int] = {}
        for node in self._require_fitted().iter_nodes():
            if node.is_leaf:
                continue
            name = self._names[node.split_attribute]
            if name not in levels or node.depth < levels[name]:
                levels[name] = node.depth
        return levels

    def describe(self, precision: int = 4) -> str:
        """Indented textual rendering of the tree and its leaf models."""
        lines: list[str] = []
        self._describe_node(self._require_fitted(), lines, indent=0, precision=precision)
        return "\n".join(lines)

    def _describe_node(self, node: M5Node, lines: list[str], indent: int, precision: int) -> None:
        pad = "  " * indent
        if node.is_leaf:
            assert node.model is not None
            lines.append(f"{pad}LM ({node.num_samples} rows): {node.model.describe(precision)}")
            return
        name = self._names[node.split_attribute]
        lines.append(f"{pad}{name} <= {node.split_value:.{precision}g}:")
        assert node.left is not None and node.right is not None
        self._describe_node(node.left, lines, indent + 1, precision)
        lines.append(f"{pad}{name} > {node.split_value:.{precision}g}:")
        self._describe_node(node.right, lines, indent + 1, precision)


class _Gather:
    """Some rows of a batch, by column: ``_Gather(x.T, rows)[j]`` is ``x[rows, j]``."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: np.ndarray, rows: np.ndarray) -> None:
        self.columns = columns
        self.rows = rows

    def __getitem__(self, column: int) -> np.ndarray:
        return self.columns[column][self.rows]


def _error_adjustment(rows: int, parameters: int) -> float:
    """M5's pessimistic error multiplier ``(n + v) / (n - v)``."""
    if rows <= parameters:
        return float(rows + parameters)
    return (rows + parameters) / (rows - parameters)


def _fit_restricted_model(
    x: np.ndarray, y: np.ndarray, allowed: Sequence[int], names: Sequence[str]
) -> LinearRegressionModel:
    """Fit a linear model using only the ``allowed`` columns of ``x``.

    The returned model still accepts full-width rows (eliminated columns get
    zero coefficients), which keeps prediction code independent of which
    attributes each node was allowed to use.  Node models rely on the
    standardisation inside :class:`LinearRegressionModel` to stay numerically
    stable on small row subsets of highly collinear derived variables.
    """
    model = LinearRegressionModel(eliminate_attributes=True, attribute_names=list(names))
    if len(allowed) == x.shape[1]:
        return model.fit(x, y)
    masked = np.zeros_like(x)
    masked[:, list(allowed)] = x[:, list(allowed)]
    return model.fit(masked, y)


def _best_sdr_split(x: np.ndarray, y: np.ndarray, min_instances: int) -> tuple[int, float] | None:
    """Return the (attribute, threshold) maximising standard deviation reduction.

    Thresholds are midpoints between consecutive distinct sorted values; both
    sides must keep at least ``min_instances`` rows.  Returns ``None`` when no
    admissible split reduces the standard deviation.
    """
    rows = y.shape[0]
    if rows < 2 * min_instances:
        return None
    parent_std = float(np.std(y))
    if parent_std <= 1e-12:
        return None
    best: tuple[float, int, float] | None = None
    for attribute in range(x.shape[1]):
        order = np.argsort(x[:, attribute], kind="mergesort")
        values = x[order, attribute]
        sorted_y = y[order]
        cumulative = np.cumsum(sorted_y)
        cumulative_sq = np.cumsum(sorted_y**2)
        total = cumulative[-1]
        total_sq = cumulative_sq[-1]
        for cut in range(min_instances, rows - min_instances + 1):
            if values[cut - 1] == values[cut]:
                continue
            left_n = cut
            right_n = rows - cut
            left_var = cumulative_sq[cut - 1] / left_n - (cumulative[cut - 1] / left_n) ** 2
            right_sum = total - cumulative[cut - 1]
            right_sq = total_sq - cumulative_sq[cut - 1]
            right_var = right_sq / right_n - (right_sum / right_n) ** 2
            left_std = float(np.sqrt(max(left_var, 0.0)))
            right_std = float(np.sqrt(max(right_var, 0.0)))
            sdr = parent_std - (left_n / rows * left_std + right_n / rows * right_std)
            if sdr <= 1e-12:
                continue
            if best is None or sdr > best[0]:
                threshold = float((values[cut - 1] + values[cut]) / 2.0)
                best = (sdr, attribute, threshold)
    if best is None:
        return None
    return best[1], best[2]
