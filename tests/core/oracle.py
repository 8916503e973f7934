"""The batch Table 2 transform the feature bank replaced, kept as the reference.

These are the original whole-trace implementations behind
``FeatureCatalog.compute``: a cumulative-sum sliding-window average, a
consumption speed built on it, a clamped inverse, and the catalogue's
columns assembled one series at a time.  ``FeatureBank`` must reproduce
``feature_matrix`` bit for bit, on one stream or many.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import _RAW_TAGS, _SPEED_RESOURCES, _SWA_RAW_RESOURCES

_EPSILON = 1e-6


def sliding_window_average(values, window: int) -> np.ndarray:
    """Causal moving average over the last ``window`` observations."""
    series = np.asarray(values, dtype=float)
    if series.size == 0:
        return np.zeros(0)
    cumulative = np.cumsum(series)
    output = np.empty_like(series)
    for index in range(series.shape[0]):
        start = max(0, index - window + 1)
        total = cumulative[index] - (cumulative[start - 1] if start > 0 else 0.0)
        output[index] = total / (index - start + 1)
    return output


def consumption_speed(times, values, window: int) -> np.ndarray:
    """Sliding-window-averaged speed; the first mark's instantaneous speed is zero."""
    times_arr = np.asarray(times, dtype=float)
    values_arr = np.asarray(values, dtype=float)
    instantaneous = np.zeros_like(values_arr)
    if times_arr.size > 1:
        deltas = np.diff(times_arr)
        if np.any(deltas <= 0):
            raise ValueError("times must be strictly increasing")
        instantaneous[1:] = np.diff(values_arr) / deltas
    return sliding_window_average(instantaneous, window)


def safe_inverse(values) -> np.ndarray:
    """Element-wise ``1/x`` with near-zero values clamped to ``1/epsilon``."""
    series = np.asarray(values, dtype=float)
    clipped = np.where(np.abs(series) < _EPSILON, np.sign(series) * _EPSILON + (series == 0) * _EPSILON, series)
    return 1.0 / clipped


def feature_matrix(
    times, raw: dict[str, np.ndarray], window: int, include_raw: bool = True, include_derived: bool = True
) -> tuple[np.ndarray, list[str]]:
    """The catalogue matrix of one stream's marks, column by column.

    ``raw`` maps every raw Table 2 variable to its series.  Returns the
    matrix and its column names; unlike the bank it does not check that the
    values are finite.
    """
    names: list[str] = []
    columns: list[np.ndarray] = []
    if include_raw:
        for attribute in _RAW_TAGS:
            names.append(attribute)
            columns.append(np.asarray(raw[attribute], dtype=float))
    if include_derived:
        throughput = np.maximum(np.asarray(raw["throughput_rps"], dtype=float), _EPSILON)
        for attribute in _SPEED_RESOURCES:
            value = np.asarray(raw[attribute], dtype=float)
            speed = consumption_speed(times, value, window)
            inverse = safe_inverse(speed)
            names += [
                f"swa_speed[{attribute}]",
                f"inv_swa_speed[{attribute}]",
                f"swa_speed_per_throughput[{attribute}]",
                f"inv_swa_speed_per_throughput[{attribute}]",
                f"used_per_swa_speed[{attribute}]",
                f"used_per_swa_speed_per_throughput[{attribute}]",
            ]
            columns += [
                speed,
                inverse,
                speed / throughput,
                inverse / throughput,
                value * inverse,
                value * inverse / throughput,
            ]
        for attribute in _SWA_RAW_RESOURCES:
            names.append(f"swa[{attribute}]")
            columns.append(sliding_window_average(raw[attribute], window))
    return np.column_stack(columns), names


def trace_matrix(trace, window: int, include_raw: bool = True, include_derived: bool = True):
    """``feature_matrix`` of a ``Trace``."""
    raw = {attribute: trace.series(attribute) for attribute in _RAW_TAGS}
    return feature_matrix(trace.times(), raw, window, include_raw, include_derived)
