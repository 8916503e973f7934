"""Feature selection: expert variable groups and correlation ranking.

Experiment 4.3 of the paper obtains poor results with the full variable set
("the model was paying too much attention to irrelevant attributes") and,
following Hoffmann, Trivedi & Malek's best-practice guide, re-trains on an
expert-selected subset: "only the variables related with the Java Heap
evolution".  This module provides that expert selection (via the feature
tags of :class:`repro.core.features.FeatureCatalog`) plus a simple
correlation-based automatic ranking usable when no expert is available.
"""

from __future__ import annotations

import numpy as np

from repro.core.dataset import AgingDataset
from repro.core.features import FeatureCatalog

__all__ = [
    "VARIABLE_GROUPS",
    "select_by_group",
    "select_heap_variables",
    "correlation_ranking",
    "top_k_features",
]

#: Named expert variable groups: group name -> tag that features must carry.
VARIABLE_GROUPS: dict[str, str] = {
    "heap": "heap",
    "memory": "memory",
    "threads": "threads",
    "workload": "workload",
    "system": "system",
}


def select_by_group(group: str, catalog: FeatureCatalog | None = None) -> list[str]:
    """Names of the catalogue features tagged with ``group``.

    ``group`` must be one of :data:`VARIABLE_GROUPS`; the result preserves the
    catalogue order so selected datasets remain column-stable.
    """
    if group not in VARIABLE_GROUPS:
        valid = ", ".join(sorted(VARIABLE_GROUPS))
        raise KeyError(f"unknown variable group {group!r}; valid groups: {valid}")
    active_catalog = catalog if catalog is not None else FeatureCatalog()
    tag = VARIABLE_GROUPS[group]
    return [name for name, tags in active_catalog.feature_tags.items() if tag in tags]


def select_heap_variables(catalog: FeatureCatalog | None = None) -> list[str]:
    """The Experiment 4.3 expert selection: Java-Heap-related variables only."""
    return select_by_group("heap", catalog)


def correlation_ranking(dataset: AgingDataset) -> list[tuple[str, float]]:
    """Rank features by absolute Pearson correlation with the TTF target.

    Constant features get a correlation of zero.  The returned list is sorted
    from the most to the least correlated feature.
    """
    targets = dataset.targets
    target_std = float(np.std(targets))
    rankings: list[tuple[str, float]] = []
    for index, name in enumerate(dataset.feature_names):
        column = dataset.features[:, index]
        column_std = float(np.std(column))
        if column_std <= 1e-12 or target_std <= 1e-12:
            rankings.append((name, 0.0))
            continue
        covariance = float(np.mean((column - column.mean()) * (targets - targets.mean())))
        rankings.append((name, abs(covariance / (column_std * target_std))))
    rankings.sort(key=lambda item: item[1], reverse=True)
    return rankings


def top_k_features(dataset: AgingDataset, k: int) -> list[str]:
    """Names of the ``k`` features most correlated with the target."""
    if k < 1:
        raise ValueError("k must be at least 1")
    ranking = correlation_ranking(dataset)
    return [name for name, _score in ranking[:k]]
