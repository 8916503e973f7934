"""Derived variables of Table 2: sliding-window speeds, inverses and ratios.

Section 2.2 of the paper explains the key feature-engineering decision: the
model is fed not only the raw metrics but a set of *derived* variables, "the
most important variable we add is the consumption speed from every resource
under monitoring", smoothed with a **sliding window average** so that noise
and short-lived fluctuations (GC activity, load spikes) do not dominate.
Table 2 then lists the whole derived-variable family: SWA variations
(speeds), speeds normalised by throughput, inverses of speeds, resource
values divided by their speed, and SWAs of selected raw metrics.

``FeatureCatalog`` names that family.  Every feature carries a set of
*tags* (``heap``, ``memory``, ``threads``, ``workload``, ``system``) so the
expert feature selection of Experiment 4.3 -- "re-train the model only with
the variables related with the Java Heap evolution" -- is a one-liner.

``FeatureBank`` computes it, and is the only code that does.  It keeps
O(window) state for each of N monitoring streams and emits the rows of the
streams that mark, vectorised across the streams and across all nine
smoothed series.  A trace is one stream pushed mark by mark
(:meth:`FeatureCatalog.compute`), the on-line monitor holds a one-stream
bank, and the fluid cluster engine holds one stream per node.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.testbed.monitoring.collector import MonitoringSample, Trace

__all__ = [
    "DEFAULT_WINDOW",
    "RAW_VARIABLES",
    "FeatureBank",
    "FeatureCatalog",
    "raw_matrix",
]

#: Default sliding-window length in monitoring marks.  The paper mentions a
#: 12-mark window explicitly when discussing the adaptation delay of
#: Experiment 4.2 (12 marks x 15 seconds = 180 seconds).
DEFAULT_WINDOW = 12

#: Floor of the divisors: speeds nearer zero than this invert to
#: ``+-1/epsilon`` (zero counts as positive), and throughput below it
#: divides as ``epsilon``.
_EPSILON = 1e-6

#: Raw metric attribute -> resource tags.
_RAW_TAGS: dict[str, frozenset[str]] = {
    "throughput_rps": frozenset({"workload"}),
    "workload_ebs": frozenset({"workload"}),
    "response_time_s": frozenset({"workload", "system"}),
    "system_load": frozenset({"system"}),
    "disk_used_mb": frozenset({"system"}),
    "swap_free_mb": frozenset({"system", "memory"}),
    "num_processes": frozenset({"system", "threads"}),
    "system_memory_used_mb": frozenset({"memory", "system"}),
    "tomcat_memory_used_mb": frozenset({"memory"}),
    "num_threads": frozenset({"threads"}),
    "http_connections": frozenset({"workload"}),
    "mysql_connections": frozenset({"workload"}),
    "young_max_mb": frozenset({"heap", "memory"}),
    "old_max_mb": frozenset({"heap", "memory"}),
    "young_used_mb": frozenset({"heap", "memory"}),
    "old_used_mb": frozenset({"heap", "memory"}),
    "young_used_pct": frozenset({"heap", "memory"}),
    "old_used_pct": frozenset({"heap", "memory"}),
}

#: Resources whose consumption speed the paper derives (threads, Tomcat
#: memory, system memory and the two heap zones).
_SPEED_RESOURCES: dict[str, frozenset[str]] = {
    "num_threads": frozenset({"threads"}),
    "tomcat_memory_used_mb": frozenset({"memory"}),
    "system_memory_used_mb": frozenset({"memory", "system"}),
    "young_used_mb": frozenset({"heap", "memory"}),
    "old_used_mb": frozenset({"heap", "memory"}),
}

#: Raw metrics whose plain sliding-window average is also a feature
#: ("SWA Resource Used (4)" in Table 2).
_SWA_RAW_RESOURCES: tuple[str, ...] = (
    "response_time_s",
    "throughput_rps",
    "system_memory_used_mb",
    "tomcat_memory_used_mb",
)

#: The raw variables in row order: the ``[streams, 18]`` input of a bank push.
RAW_VARIABLES: tuple[str, ...] = tuple(_RAW_TAGS)

#: The six derived forms of every speed resource, in row order.  The
#: ``*_per_throughput`` forms are divided by ``max(throughput, epsilon)``.
_SPEED_FORMS = (
    "swa_speed",
    "inv_swa_speed",
    "swa_speed_per_throughput",
    "inv_swa_speed_per_throughput",
    "used_per_swa_speed",
    "used_per_swa_speed_per_throughput",
)

#: Every catalogue feature, in row order, with its resource tags: the raw
#: variables, six forms per speed resource, then the SWAs of raw metrics.
_FEATURES: list[tuple[str, frozenset[str]]] = (
    list(_RAW_TAGS.items())
    + [
        (f"{form}[{attribute}]", tags | {"workload"} if form.endswith("_per_throughput") else tags)
        for attribute, tags in _SPEED_RESOURCES.items()
        for form in _SPEED_FORMS
    ]
    + [(f"swa[{attribute}]", _RAW_TAGS[attribute]) for attribute in _SWA_RAW_RESOURCES]
)

#: Raw-row columns feeding the bank: the speed resources, the SWA'd metrics
#: and the throughput divisor.
_SPEED_COLUMNS = np.array([RAW_VARIABLES.index(attribute) for attribute in _SPEED_RESOURCES])
_SWA_COLUMNS = np.array([RAW_VARIABLES.index(attribute) for attribute in _SWA_RAW_RESOURCES])
_THROUGHPUT_COLUMN = RAW_VARIABLES.index("throughput_rps")

_raw_values = attrgetter(*RAW_VARIABLES)


def raw_matrix(samples: Sequence[MonitoringSample]) -> np.ndarray:
    """The ``[len(samples), 18]`` raw variables of monitoring samples, in row order."""
    return np.array([_raw_values(sample) for sample in samples], dtype=float)


class FeatureCatalog:
    """The Table 2 variable set: names, tags and the column subset in use.

    Parameters
    ----------
    window:
        Sliding-window length in monitoring marks.
    include_raw / include_derived:
        Switch off either half of the catalogue (used by ablations measuring
        the value of the derived speed variables).
    """

    def __init__(self, window: int = DEFAULT_WINDOW, include_raw: bool = True, include_derived: bool = True) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        if not include_raw and not include_derived:
            raise ValueError("at least one of include_raw / include_derived must be true")
        self.window = window
        self.include_raw = include_raw
        self.include_derived = include_derived
        # The catalogue's features are this contiguous run of a full row.
        raw_end = len(_RAW_TAGS)
        self.columns = slice(0 if include_raw else raw_end, len(_FEATURES) if include_derived else raw_end)
        self._tags = dict(_FEATURES[self.columns])

    @property
    def feature_names(self) -> list[str]:
        return list(self._tags)

    @property
    def feature_tags(self) -> dict[str, frozenset[str]]:
        return dict(self._tags)

    def __len__(self) -> int:
        return len(self._tags)

    def compute(self, trace: Trace) -> tuple[np.ndarray, list[str]]:
        """Compute the feature matrix of a trace.

        Pushes the trace mark by mark through a one-stream
        :class:`FeatureBank`.  Returns ``(matrix, names)`` where the matrix
        has one row per monitoring sample and one column per catalogue
        feature.  Raises ``ValueError`` for empty traces, times that do not
        strictly increase, and non-finite rows.
        """
        if len(trace) == 0:
            raise ValueError("cannot compute features of an empty trace")
        bank = FeatureBank(self)
        stream = np.zeros(1, dtype=np.intp)
        raw = raw_matrix(trace.samples)
        rows = [bank.push(stream, time, raw[mark : mark + 1]) for mark, time in enumerate(trace.times())]
        return np.concatenate(rows), self.feature_names


class FeatureBank:
    """Catalogue rows of N monitoring streams from O(window) state each.

    Every stream keeps the running sum of each of its nine smoothed series
    (five instantaneous speeds, four raw metrics) and a ``window + 1`` ring
    of those sums, so a push costs the same however long the stream has
    run.  A sliding-window average is the difference of two sums over the
    marks it covers -- exactly the cumulative-sum arithmetic of the batch
    transform, so a stream's rows are bit-for-bit the rows its whole
    history would give.  Tree models route on ulp-level splits, and the
    engines' golden digests assume that equality.

    Streams restart independently (a node rejuvenates), so all state is per
    stream and :meth:`reset` rewinds only the streams it is given.
    """

    def __init__(self, catalog: FeatureCatalog, num_streams: int = 1) -> None:
        self.catalog = catalog
        self.window = catalog.window
        smoothed = len(_SPEED_COLUMNS) + len(_SWA_COLUMNS)
        self._count = np.zeros(num_streams, dtype=np.int64)
        # A fresh stream's last mark is at -inf: its first mark passes the
        # time check and gets speed (value - 0) / inf = 0, as in Table 2.
        self._last_time = np.full(num_streams, -np.inf)
        self._previous = np.zeros((num_streams, len(_SPEED_COLUMNS)))
        self._sums = np.zeros((num_streams, smoothed))
        # Slot ``m % (window + 1)`` holds the sums after mark m; slots a
        # stream has not written since its (re)start hold zeros.
        self._ring = np.zeros((num_streams, self.window + 1, smoothed))

    def marks_pushed(self, stream: int) -> int:
        """Marks the stream has pushed since it (re)started."""
        return int(self._count[stream])

    def reset(self, streams: np.ndarray) -> None:
        """Restart ``streams`` (indices or a boolean mask) with no history."""
        self._count[streams] = 0
        self._last_time[streams] = -np.inf
        self._previous[streams] = 0.0
        self._sums[streams] = 0.0
        self._ring[streams] = 0.0

    def push(self, streams: np.ndarray, time_seconds: float | np.ndarray, raw: np.ndarray) -> np.ndarray:
        """Ingest one mark of each of ``streams``; return their catalogue rows.

        ``streams`` holds distinct stream indices, ``time_seconds`` is the
        mark time (one for all of them or one per stream) and ``raw`` is the
        ``[len(streams), 18]`` raw variables in :data:`RAW_VARIABLES` order.
        Returns a ``[len(streams), len(catalog)]`` matrix.  Raises
        ``ValueError``, before any state changes, when a stream's time does
        not increase, and after the push when a row is not finite.
        """
        count = self._count[streams]
        last_time = self._last_time[streams]
        if (time_seconds <= last_time).any():
            raise ValueError("times must be strictly increasing")
        used = raw.take(_SPEED_COLUMNS, axis=1)
        speeds = (used - self._previous[streams]) / (time_seconds - last_time)[:, None]
        sums = self._sums[streams] + np.concatenate((speeds, raw.take(_SWA_COLUMNS, axis=1)), axis=1)
        slots = self.window + 1
        self._ring[streams, count % slots] = sums
        # Minus the sums ``window`` marks back (zeros while the window is
        # filling), over the number of marks covered.
        marks = count + 1
        averages = (sums - self._ring[streams, marks % slots]) / np.minimum(marks, self.window)[:, None]
        self._count[streams] = marks
        self._last_time[streams] = time_seconds
        self._previous[streams] = used
        self._sums[streams] = sums

        speed = averages[:, : len(_SPEED_COLUMNS)]
        clamped = np.where(speed >= 0.0, np.maximum(speed, _EPSILON), np.minimum(speed, -_EPSILON))
        # The six _SPEED_FORMS of every speed resource: speed, inverse, both
        # per throughput, used per speed, and that per throughput.
        forms = np.empty(speed.shape + (len(_SPEED_FORMS),))
        forms[:, :, 0] = speed
        forms[:, :, 1] = 1.0 / clamped
        forms[:, :, 4] = used * forms[:, :, 1]
        throughput = np.maximum(raw[:, _THROUGHPUT_COLUMN], _EPSILON)[:, None, None]
        forms[:, :, 2:4] = forms[:, :, 0:2] / throughput
        forms[:, :, 5:] = forms[:, :, 4:5] / throughput
        derived = forms.reshape(len(forms), forms.shape[1] * forms.shape[2])
        rows = np.concatenate((raw, derived, averages[:, len(_SPEED_COLUMNS) :]), axis=1)[:, self.catalog.columns]
        if not np.isfinite(rows).all():
            raise ValueError("feature computation produced non-finite values")
        return rows
