"""Time-to-failure datasets built from testbed traces.

The paper trains its models on *failure executions*: every monitoring mark of
a run that ended in a crash is labelled with the true time remaining until
that crash.  Runs without aging are included too, labelled with a large
finite horizon -- "we have trained our model to declare that the time until
crash is 3 hours (standing for 'very long' or 'infinite') when there is no
aging" (Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.features import DEFAULT_WINDOW, FeatureCatalog
from repro.testbed.monitoring.collector import Trace

__all__ = ["AgingDataset", "build_dataset", "INFINITE_TTF_SECONDS"]

#: The paper's "infinite" time-to-failure label (3 hours) for healthy runs.
INFINITE_TTF_SECONDS = 10_800.0


@dataclass
class AgingDataset:
    """Feature matrix, TTF targets and bookkeeping for one or more traces.

    Attributes
    ----------
    features:
        2-D matrix with one row per monitoring mark.
    targets:
        True time to failure (seconds) of each row.
    feature_names:
        Column names, aligned with ``features``.
    times:
        Simulation timestamp of each row (useful for PRE/POST splits).
    trace_ids:
        Index of the source trace of each row (rows from several runs are
        concatenated, as in the paper's multi-execution training sets).
    """

    features: np.ndarray
    targets: np.ndarray
    feature_names: list[str]
    times: np.ndarray
    trace_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        rows = self.features.shape[0]
        if self.targets.shape != (rows,):
            raise ValueError("targets must have one value per feature row")
        if self.times.shape != (rows,):
            raise ValueError("times must have one value per feature row")
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names must match the number of feature columns")
        if self.trace_ids.size == 0:
            self.trace_ids = np.zeros(rows, dtype=int)
        if self.trace_ids.shape != (rows,):
            raise ValueError("trace_ids must have one value per feature row")

    @property
    def num_instances(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def select_features(self, indices: Sequence[int]) -> "AgingDataset":
        """Return a copy restricted to the given feature columns."""
        index_list = list(indices)
        if not index_list:
            raise ValueError("at least one feature must be selected")
        return AgingDataset(
            features=self.features[:, index_list],
            targets=self.targets.copy(),
            feature_names=[self.feature_names[i] for i in index_list],
            times=self.times.copy(),
            trace_ids=self.trace_ids.copy(),
        )

    def select_feature_names(self, names: Sequence[str]) -> "AgingDataset":
        """Return a copy restricted to the named feature columns."""
        missing = [name for name in names if name not in self.feature_names]
        if missing:
            raise KeyError(f"unknown feature names: {missing}")
        indices = [self.feature_names.index(name) for name in names]
        return self.select_features(indices)

    @staticmethod
    def concatenate(datasets: Sequence["AgingDataset"]) -> "AgingDataset":
        """Stack several datasets (they must share the same feature columns)."""
        if not datasets:
            raise ValueError("cannot concatenate zero datasets")
        names = datasets[0].feature_names
        for dataset in datasets[1:]:
            if dataset.feature_names != names:
                raise ValueError("datasets have different feature columns")
        offset = 0
        trace_ids = []
        for dataset in datasets:
            trace_ids.append(dataset.trace_ids + offset)
            offset += int(dataset.trace_ids.max()) + 1 if dataset.trace_ids.size else 0
        return AgingDataset(
            features=np.vstack([dataset.features for dataset in datasets]),
            targets=np.concatenate([dataset.targets for dataset in datasets]),
            feature_names=list(names),
            times=np.concatenate([dataset.times for dataset in datasets]),
            trace_ids=np.concatenate(trace_ids),
        )


def _label_trace(trace: Trace, infinite_ttf: float) -> np.ndarray:
    """Time-to-failure label of every sample of one trace."""
    if trace.crashed and trace.crash_time_seconds is not None:
        return trace.crash_time_seconds - trace.times()
    return np.full(len(trace), float(infinite_ttf))


def build_dataset(
    traces: Iterable[Trace],
    window: int = DEFAULT_WINDOW,
    catalog: FeatureCatalog | None = None,
    infinite_ttf: float = INFINITE_TTF_SECONDS,
) -> AgingDataset:
    """Build a training/evaluation dataset from one or more traces.

    Parameters
    ----------
    traces:
        Testbed traces; crashed traces are labelled with their true TTF,
        healthy traces with ``infinite_ttf``.
    window:
        Sliding-window length used for the derived variables.
    catalog:
        Optional pre-built :class:`FeatureCatalog` (shared across calls so
        training and test sets use identical columns).
    infinite_ttf:
        Label assigned to samples of non-crashing runs.
    """
    trace_list = list(traces)
    if not trace_list:
        raise ValueError("at least one trace is required")
    if infinite_ttf <= 0:
        raise ValueError("infinite_ttf must be positive")
    active_catalog = catalog if catalog is not None else FeatureCatalog(window=window)

    matrices: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    times: list[np.ndarray] = []
    trace_ids: list[np.ndarray] = []
    names: list[str] = []
    for index, trace in enumerate(trace_list):
        matrix, names = active_catalog.compute(trace)
        matrices.append(matrix)
        labels.append(_label_trace(trace, infinite_ttf))
        times.append(trace.times())
        trace_ids.append(np.full(len(trace), index, dtype=int))
    return AgingDataset(
        features=np.vstack(matrices),
        targets=np.concatenate(labels),
        feature_names=list(names),
        times=np.concatenate(times),
        trace_ids=np.concatenate(trace_ids),
    )
