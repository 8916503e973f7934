"""Tests for the sliding-window derived variables (Table 2).

Every Table 2 row comes out of one ``FeatureBank``.  The unit tests below
read single columns of its rows (sliding-window averages, speeds, clamped
inverses); the golden tests pin whole rows recorded from the batch transform
the bank replaced, on its batch, one-stream and N-stream paths; and the
property suite checks the bank against that transform (``tests/core/oracle.py``)
over random windows, stream counts, resets and column subsets.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import DEFAULT_WINDOW, RAW_VARIABLES, FeatureBank, FeatureCatalog, raw_matrix
from repro.testbed.monitoring.collector import MonitoringSample, Trace
from tests.core import oracle

GOLDENS = json.loads(Path(__file__).with_name("feature_goldens.json").read_text())
NO_STREAMS = np.zeros(0, dtype=np.intp)


def series_trace(values, times=None, attribute="old_used_mb") -> Trace:
    """A trace whose raw variables are all zero but ``attribute``; marks every 15 s by default."""
    times = 15.0 * np.arange(1, len(values) + 1) if times is None else times
    zeros = dict.fromkeys(RAW_VARIABLES, 0.0)
    return Trace(
        samples=[
            MonitoringSample(time_seconds=float(time), **{**zeros, attribute: float(value)})
            for time, value in zip(times, values)
        ]
    )


def column(trace: Trace, name: str, window: int) -> np.ndarray:
    matrix, names = FeatureCatalog(window=window).compute(trace)
    return matrix[:, names.index(name)]


def sliding_window_average(values, window):
    return column(series_trace(values, attribute="response_time_s"), "swa[response_time_s]", window)


def consumption_speed(times, values, window):
    return column(series_trace(values, times), "swa_speed[old_used_mb]", window)


def inverse_of_speeds(speeds):
    """``inv_swa_speed`` at window 1 for marks whose speeds are ``speeds``."""
    values = np.concatenate(([0.0], np.cumsum(np.asarray(speeds, dtype=float) * 15.0)))
    return column(series_trace(values), "inv_swa_speed[old_used_mb]", window=1)[1:]


def golden_trace() -> Trace:
    series = {name: [float.fromhex(value) for value in values] for name, values in GOLDENS["trace"].items()}
    marks = len(series["time_seconds"])
    return Trace(
        samples=[MonitoringSample(**{name: values[mark] for name, values in series.items()}) for mark in range(marks)]
    )


def golden_rows(window: int) -> np.ndarray:
    return np.array([[float.fromhex(value) for value in row] for row in GOLDENS["rows"][str(window)]])


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestSlidingWindowAverage:
    def test_constant_series_unchanged(self):
        assert np.allclose(sliding_window_average([5.0] * 10, 3), 5.0)

    def test_window_of_one_is_identity(self):
        values = [1.0, 7.0, 3.0]
        assert np.allclose(sliding_window_average(values, 1), values)

    def test_known_values(self):
        result = sliding_window_average([1.0, 2.0, 3.0, 4.0], 2)
        assert np.allclose(result, [1.0, 1.5, 2.5, 3.5])

    def test_prefix_uses_available_history_only(self):
        result = sliding_window_average([10.0, 20.0, 30.0], 10)
        assert np.allclose(result, [10.0, 15.0, 20.0])

    def test_empty_series(self):
        bank = FeatureBank(FeatureCatalog(window=3), num_streams=2)
        assert bank.push(NO_STREAMS, 15.0, np.zeros((0, len(RAW_VARIABLES)))).shape == (0, 52)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            FeatureCatalog(window=0)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(0)
        noisy = rng.normal(0, 1, 500)
        smoothed = sliding_window_average(noisy, 12)
        assert np.var(smoothed) < np.var(noisy)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_output_within_input_range(self, values, window):
        result = sliding_window_average(values, window)
        assert result.min() >= min(values) - 1e-6
        assert result.max() <= max(values) + 1e-6


class TestConsumptionSpeed:
    def test_linear_growth_gives_constant_speed(self):
        times = np.arange(0, 300, 15, dtype=float)
        values = 2.0 * times
        speed = consumption_speed(times, values, window=4)
        # The first mark has no predecessor (speed 0) and the sliding window
        # needs a few marks to fill; after that the speed is exactly 2 MB/s.
        assert speed[0] == 0.0
        assert np.all(np.diff(speed[:4]) > 0)
        assert np.allclose(speed[4:], 2.0)

    def test_flat_series_gives_zero_speed(self):
        times = np.arange(0, 150, 15, dtype=float)
        speed = consumption_speed(times, np.full_like(times, 100.0), window=4)
        assert np.allclose(speed, 0.0)

    def test_release_gives_negative_speed(self):
        times = np.arange(0, 150, 15, dtype=float)
        values = 1000.0 - 3.0 * times
        speed = consumption_speed(times, values, window=2)
        assert np.all(speed[1:] < 0)

    def test_window_delays_reaction_to_rate_change(self):
        times = np.arange(0, 1500, 15, dtype=float)
        values = np.where(times < 750, 1.0 * times, 750.0 + 5.0 * (times - 750))
        short = consumption_speed(times, values, window=2)
        long = consumption_speed(times, values, window=12)
        change_index = int(np.argmax(times >= 750)) + 2
        # Just after the change the short window has almost caught up with the
        # new 5 MB/s rate while the long window is still mid-transition.
        assert short[change_index] > long[change_index]

    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            consumption_speed([0.0, 0.0], [1.0, 2.0], window=2)


class TestSafeInverse:
    def test_normal_values(self):
        assert np.allclose(inverse_of_speeds([2.0, 4.0]), [0.5, 0.25])

    def test_zero_clamped_to_large_finite(self):
        result = inverse_of_speeds([0.0])
        assert np.isfinite(result[0])
        assert result[0] > 1e5

    def test_sign_preserved_for_small_negative(self):
        assert inverse_of_speeds([-1e-9])[0] < 0

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_always_finite(self, values):
        assert np.all(np.isfinite(inverse_of_speeds(values)))


class TestFeatureCatalog:
    def test_catalogue_contains_raw_and_derived_variables(self):
        catalog = FeatureCatalog()
        names = catalog.feature_names
        assert "tomcat_memory_used_mb" in names
        assert "swa_speed[old_used_mb]" in names
        assert "inv_swa_speed[num_threads]" in names
        assert "swa[response_time_s]" in names
        assert len(names) == len(set(names)), "feature names must be unique"
        # 18 raw + 5 speed resources x 6 derived forms + 4 plain SWAs.
        assert len(names) == 18 + 5 * 6 + 4

    def test_tags_enable_heap_selection(self):
        catalog = FeatureCatalog()
        tags = catalog.feature_tags
        assert "heap" in tags["old_used_mb"]
        assert "heap" in tags["swa_speed[young_used_mb]"]
        assert "heap" not in tags["num_threads"]

    def test_compute_on_trace(self, training_traces):
        catalog = FeatureCatalog()
        matrix, names = catalog.compute(training_traces[0])
        assert matrix.shape == (len(training_traces[0]), len(names))
        assert np.all(np.isfinite(matrix))

    def test_raw_only_and_derived_only(self, training_traces):
        raw_only = FeatureCatalog(include_derived=False)
        derived_only = FeatureCatalog(include_raw=False)
        assert len(raw_only) == 18
        assert len(derived_only) == 5 * 6 + 4
        matrix, _ = raw_only.compute(training_traces[0])
        assert matrix.shape[1] == 18

    def test_window_changes_derived_values(self, training_traces):
        trace = training_traces[0]
        short, names = FeatureCatalog(window=2).compute(trace)
        long, _ = FeatureCatalog(window=24).compute(trace)
        column = names.index("swa_speed[old_used_mb]")
        assert not np.allclose(short[:, column], long[:, column])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            FeatureCatalog().compute(Trace())

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            FeatureCatalog(window=0)
        with pytest.raises(ValueError):
            FeatureCatalog(include_raw=False, include_derived=False)

    def test_default_window_matches_paper(self):
        assert DEFAULT_WINDOW == 12


@pytest.mark.parametrize("window", [12, 5])
class TestGoldens:
    """Rows recorded from the batch transform, on every path through the bank."""

    def test_the_oracle_is_the_recorded_transform(self, window):
        matrix, names = oracle.trace_matrix(golden_trace(), window)
        assert names == GOLDENS["feature_names"]
        assert_same_bits(matrix, golden_rows(window))

    @pytest.mark.parametrize(
        "include_raw, include_derived", [(True, True), (True, False), (False, True)], ids=["all", "raw", "derived"]
    )
    def test_batch(self, window, include_raw, include_derived):
        catalog = FeatureCatalog(window=window, include_raw=include_raw, include_derived=include_derived)
        matrix, names = catalog.compute(golden_trace())
        assert names == GOLDENS["feature_names"][catalog.columns]
        assert_same_bits(matrix, golden_rows(window)[:, catalog.columns])

    def test_one_stream(self, window):
        bank = FeatureBank(FeatureCatalog(window=window))
        stream = np.zeros(1, dtype=np.intp)
        rows = [bank.push(stream, sample.time_seconds, raw_matrix([sample])) for sample in golden_trace()]
        assert_same_bits(np.concatenate(rows), golden_rows(window))

    def test_n_streams_with_random_due_subsets_and_a_reset(self, window):
        """Five streams replay the trace at random paces; stream 2 restarts mid-trace."""
        trace = golden_trace()
        times, raw, expected = trace.times(), raw_matrix(trace.samples), golden_rows(window)
        bank = FeatureBank(FeatureCatalog(window=window), num_streams=5)
        rng = np.random.default_rng(window)
        position = np.zeros(5, dtype=np.intp)
        reset_done = False
        while (position < len(trace)).any():
            due = np.flatnonzero((position < len(trace)) & (rng.random(5) < 0.6))
            rows = bank.push(due, times[position[due]], raw[position[due]])
            for row, stream in zip(rows, due):
                assert_same_bits(row, expected[position[stream]])
            position[due] += 1
            if not reset_done and position[2] == len(trace) // 2:
                bank.reset(np.array([2]))
                assert bank.marks_pushed(2) == 0
                position[2], reset_done = 0, True
        assert reset_done


@st.composite
def bank_schedules(draw):
    """A window, a column subset, a stream count and a seed for the schedule."""
    include_raw, include_derived = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    return (
        draw(st.integers(min_value=1, max_value=48)),
        include_raw,
        include_derived,
        draw(st.integers(min_value=1, max_value=4)),
        draw(st.integers(min_value=0, max_value=2**32 - 1)),
    )


def random_raw(rng: np.random.Generator, previous: np.ndarray) -> np.ndarray:
    """Next raw rows: random walks with flat, sub-epsilon, negative and large steps."""
    steps = rng.choice([0.0, 1e-7, -1e-7, 1.0], size=previous.shape) * rng.normal(0.0, 5.0, previous.shape)
    values = previous + steps
    throughput = RAW_VARIABLES.index("throughput_rps")
    values[:, throughput] = rng.choice([0.0, 5e-7, 1e-6, 25.0], size=len(values))
    return values


class TestBankAgainstOracle:
    @given(bank_schedules())
    @settings(max_examples=40, deadline=None)
    def test_every_stream_matches_the_batch_transform(self, schedule):
        window, include_raw, include_derived, num_streams, seed = schedule
        rng = np.random.default_rng(seed)
        catalog = FeatureCatalog(window=window, include_raw=include_raw, include_derived=include_derived)
        bank = FeatureBank(catalog, num_streams)
        state = rng.normal(0.0, 50.0, (num_streams, len(RAW_VARIABLES)))
        clock = np.zeros(num_streams)
        # Per stream: the (time, raw, row) marks pushed since its last reset.
        segments = [[[]] for _ in range(num_streams)]
        for _ in range(int(rng.integers(1, 3 * window + 10))):
            restarting = np.flatnonzero(rng.random(num_streams) < 0.05)
            if restarting.size:
                bank.reset(restarting)
                for stream in restarting:
                    segments[stream].append([])
            due = np.flatnonzero(rng.random(num_streams) < 0.7)
            clock[due] += rng.choice([0.5, 15.0, 22.5], size=due.size)
            state[due] = random_raw(rng, state[due])
            rows = bank.push(due, clock[due], state[due])
            assert rows.shape == (due.size, len(catalog))
            for stream, row in zip(due, rows):
                segments[stream][-1].append((clock[stream], state[stream].copy(), row))
        for stream_segments in segments:
            for segment in filter(None, stream_segments):
                times = [time for time, _, _ in segment]
                raw = np.array([values for _, values, _ in segment])
                expected, names = oracle.feature_matrix(
                    times, dict(zip(RAW_VARIABLES, raw.T)), window, include_raw, include_derived
                )
                assert names == catalog.feature_names
                assert_same_bits(np.array([row for _, _, row in segment]), expected)


class TestChecksThatRaise:
    def test_batch_rejects_non_increasing_times(self):
        samples = list(golden_trace())
        with pytest.raises(ValueError, match="strictly increasing"):
            FeatureCatalog().compute(Trace(samples=[samples[1], samples[0]]))

    def test_a_stream_rejects_time_going_backwards_before_changing_state(self):
        trace = golden_trace()
        times, raw = trace.times(), raw_matrix(trace.samples)
        bank = FeatureBank(FeatureCatalog(), num_streams=3)
        both = np.array([0, 2])
        bank.push(both, times[0], raw[[0, 0]])
        with pytest.raises(ValueError, match="strictly increasing"):
            bank.push(both, np.array([times[1], times[0]]), raw[[1, 1]])
        assert bank.marks_pushed(0) == bank.marks_pushed(2) == 1
        # The rejected push left no trace: the streams go on as if it never came.
        assert_same_bits(bank.push(both, times[1], raw[[1, 1]]), golden_rows(12)[[1, 1]])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_rows_are_rejected(self, value):
        samples = list(golden_trace())[:3]
        samples[2] = MonitoringSample(**{**samples[2].as_dict(), "old_used_mb": value})
        with pytest.raises(ValueError, match="non-finite"):
            FeatureCatalog().compute(Trace(samples=samples))
        with pytest.raises(ValueError, match="non-finite"):
            FeatureCatalog(include_raw=False).compute(Trace(samples=samples))
