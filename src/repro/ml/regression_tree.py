"""CART-style regression tree with constant-valued leaves.

This is the "decision tree" baseline of the authors' preliminary comparison
(reference [14] of the paper): a binary tree grown by variance reduction whose
leaves predict the mean target of the training rows that reached them.  It
shares the splitting machinery with :mod:`repro.ml.m5p` conceptually but is
kept independent so that each learner is self-contained and readable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["RegressionTree", "TreeNode"]


@dataclass
class TreeNode:
    """A node of the regression tree.

    Leaves have ``split_attribute is None`` and predict ``value``; inner nodes
    route a row to ``left`` when ``row[split_attribute] <= split_value`` and to
    ``right`` otherwise.
    """

    value: float
    num_samples: int
    depth: int
    split_attribute: int | None = None
    split_value: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.split_attribute is None

    def iter_nodes(self) -> Iterator["TreeNode"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        if self.left is not None:
            yield from self.left.iter_nodes()
        if self.right is not None:
            yield from self.right.iter_nodes()


class RegressionTree:
    """Binary regression tree grown by variance reduction.

    Parameters
    ----------
    min_samples_leaf:
        Minimum number of training rows in each child of a split.  The paper
        configures M5P with 10 instances per leaf; the same default is used
        here so the baselines are comparable.
    max_depth:
        Hard cap on tree depth; ``None`` means unbounded.
    min_variance_fraction:
        A node is not split further once its target standard deviation falls
        below this fraction of the root's standard deviation (same stopping
        rule as M5).
    attribute_names:
        Optional names used by :meth:`describe`.
    """

    def __init__(
        self,
        min_samples_leaf: int = 10,
        max_depth: int | None = None,
        min_variance_fraction: float = 0.05,
        attribute_names: Sequence[str] | None = None,
    ) -> None:
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        if max_depth is not None and max_depth < 1:
            raise ValueError("max_depth must be at least 1 when given")
        if not 0.0 <= min_variance_fraction < 1.0:
            raise ValueError("min_variance_fraction must be in [0, 1)")
        self.min_samples_leaf = min_samples_leaf
        self.max_depth = max_depth
        self.min_variance_fraction = min_variance_fraction
        self._given_names = list(attribute_names) if attribute_names is not None else None
        self._root: TreeNode | None = None
        self._names: list[str] = []

    # ------------------------------------------------------------------ fit

    def fit(self, features: Sequence[Sequence[float]], targets: Sequence[float]) -> "RegressionTree":
        x = np.asarray(features, dtype=float)
        y = np.asarray(targets, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError("features must be 2-D and targets 1-D with matching row counts")
        if x.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero rows")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("features and targets must be finite")
        self._names = self._resolve_names(x.shape[1])
        root_std = float(np.std(y))
        self._root = self._grow(x, y, depth=0, root_std=root_std)
        return self

    def _resolve_names(self, dimension: int) -> list[str]:
        if self._given_names is None:
            return [f"x{i}" for i in range(dimension)]
        if len(self._given_names) != dimension:
            raise ValueError("attribute_names length does not match the data")
        return list(self._given_names)

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int, root_std: float) -> TreeNode:
        node = TreeNode(value=float(np.mean(y)), num_samples=y.shape[0], depth=depth)
        if self._should_stop(y, depth, root_std):
            return node
        split = _best_variance_split(x, y, self.min_samples_leaf)
        if split is None:
            return node
        attribute, threshold = split
        mask = x[:, attribute] <= threshold
        node.split_attribute = attribute
        node.split_value = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1, root_std)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, root_std)
        return node

    def _should_stop(self, y: np.ndarray, depth: int, root_std: float) -> bool:
        if y.shape[0] < 2 * self.min_samples_leaf:
            return True
        if self.max_depth is not None and depth >= self.max_depth:
            return True
        if float(np.std(y)) <= self.min_variance_fraction * root_std:
            return True
        return False

    # -------------------------------------------------------------- predict

    def predict(self, features: Sequence[Sequence[float]]) -> np.ndarray:
        """Predict a matrix (or a single row vector).

        The rows are routed down the tree as index arrays, each leaf writing
        its value into the rows that reach it.
        """
        root = self._require_fitted()
        x = np.asarray(features, dtype=float)
        single = x.ndim == 1
        if single:
            x = x.reshape(1, -1)
        predictions = np.empty(x.shape[0])
        self._fill_leaves(root, x.T, np.arange(x.shape[0]), predictions)
        return predictions[0] if single else predictions

    def predict_one(self, row: Sequence[float]) -> float:
        return float(self.predict(np.asarray(row, dtype=float)))

    def _fill_leaves(
        self, node: TreeNode, columns: np.ndarray, rows: np.ndarray, predictions: np.ndarray
    ) -> None:
        """Write the leaf value of every row in ``rows`` (indices into ``columns[j]``)."""
        if node.is_leaf:
            predictions[rows] = node.value
            return
        goes_left = columns[node.split_attribute][rows] <= node.split_value
        for child, chosen in ((node.left, goes_left), (node.right, ~goes_left)):
            if chosen.any():
                self._fill_leaves(child, columns, rows[chosen], predictions)

    # ----------------------------------------------------------- inspection

    def _require_fitted(self) -> TreeNode:
        if self._root is None:
            raise RuntimeError("the tree has not been fitted yet")
        return self._root

    @property
    def is_fitted(self) -> bool:
        return self._root is not None

    @property
    def root(self) -> TreeNode:
        return self._require_fitted()

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
        """How many inner nodes test each attribute (root-cause signal)."""
        counts: dict[str, int] = {}
        for node in self._require_fitted().iter_nodes():
            if node.is_leaf:
                continue
            name = self._names[node.split_attribute]
            counts[name] = counts.get(name, 0) + 1
        return counts

    def split_attribute_levels(self) -> dict[str, int]:
        """Shallowest depth at which each attribute is tested."""
        levels: dict[str, int] = {}
        for node in self._require_fitted().iter_nodes():
            if node.is_leaf:
                continue
            name = self._names[node.split_attribute]
            if name not in levels or node.depth < levels[name]:
                levels[name] = node.depth
        return levels

    def describe(self, precision: int = 4) -> str:
        """Indented textual rendering of the tree."""
        lines: list[str] = []
        self._describe_node(self._require_fitted(), lines, indent=0, precision=precision)
        return "\n".join(lines)

    def _describe_node(self, node: TreeNode, lines: list[str], indent: int, precision: int) -> None:
        pad = "  " * indent
        if node.is_leaf:
            lines.append(f"{pad}leaf: {node.value:.{precision}g} ({node.num_samples} rows)")
            return
        name = self._names[node.split_attribute]
        lines.append(f"{pad}{name} <= {node.split_value:.{precision}g}?")
        assert node.left is not None and node.right is not None
        self._describe_node(node.left, lines, indent + 1, precision)
        lines.append(f"{pad}{name} > {node.split_value:.{precision}g}?")
        self._describe_node(node.right, lines, indent + 1, precision)


def _best_variance_split(
    x: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> tuple[int, float] | None:
    """Return the (attribute, threshold) that maximises variance reduction.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values.  The reduction is computed with cumulative sums so the scan over
    thresholds for one attribute is O(n log n) (dominated by the sort).
    Returns ``None`` when no split satisfies the ``min_samples_leaf``
    constraint or none reduces the variance.
    """
    rows = y.shape[0]
    if rows < 2 * min_samples_leaf:
        return None
    parent_sse = float(np.sum((y - y.mean()) ** 2))
    best: tuple[float, int, float] | None = None
    for attribute in range(x.shape[1]):
        order = np.argsort(x[:, attribute], kind="mergesort")
        values = x[order, attribute]
        sorted_y = y[order]
        cumulative = np.cumsum(sorted_y)
        cumulative_sq = np.cumsum(sorted_y**2)
        total = cumulative[-1]
        total_sq = cumulative_sq[-1]
        for cut in range(min_samples_leaf, rows - min_samples_leaf + 1):
            if values[cut - 1] == values[cut]:
                continue
            left_n = cut
            right_n = rows - cut
            left_sum = cumulative[cut - 1]
            left_sq = cumulative_sq[cut - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            left_sse = left_sq - left_sum**2 / left_n
            right_sse = right_sq - right_sum**2 / right_n
            gain = parent_sse - (left_sse + right_sse)
            if gain <= 1e-12:
                continue
            if best is None or gain > best[0]:
                threshold = float((values[cut - 1] + values[cut]) / 2.0)
                best = (gain, attribute, threshold)
    if best is None:
        return None
    return best[1], best[2]
