"""Feature selection: the expert variable groups of Experiment 4.3.

Experiment 4.3 of the paper obtains poor results with the full variable set
("the model was paying too much attention to irrelevant attributes") and,
following Hoffmann, Trivedi & Malek's best-practice guide, re-trains on an
expert-selected subset: "only the variables related with the Java Heap
evolution".  This module provides that expert selection, via the feature
tags of :class:`repro.core.features.FeatureCatalog`.
"""

from __future__ import annotations

from repro.core.features import FeatureCatalog

__all__ = [
    "VARIABLE_GROUPS",
    "select_by_group",
    "select_heap_variables",
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
