"""Rejuvenation policies: when should the server be restarted?

A policy looks at the stream of monitoring samples (and, for the predictive
policy, at the aging predictor's output) and decides at every mark whether to
rejuvenate now.  The simulator in :mod:`repro.rejuvenation.simulator` charges
every rejuvenation a fixed downtime and charges a crash a much larger one,
which is exactly the trade-off the paper's introduction describes.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.features import FeatureBank, raw_matrix
from repro.core.predictor import AgingPredictor
from repro.testbed.monitoring.collector import MonitoringSample, Trace

__all__ = [
    "RejuvenationPolicy",
    "NoRejuvenationPolicy",
    "TimeBasedRejuvenationPolicy",
    "PredictiveRejuvenationPolicy",
]

#: The predictive policy's feature bank holds one stream.
_STREAM = np.zeros(1, dtype=np.intp)


class RejuvenationPolicy(abc.ABC):
    """Decides, mark by mark, whether to trigger a rejuvenation action."""

    @abc.abstractmethod
    def should_rejuvenate(self, sample: MonitoringSample, history: Trace) -> bool:
        """Return True to restart the server right after ``sample``."""

    def notify_rejuvenation(self, time_seconds: float) -> None:
        """Called by the simulator after a rejuvenation completes."""

    def describe(self) -> str:
        return type(self).__name__


class NoRejuvenationPolicy(RejuvenationPolicy):
    """Never rejuvenate: the run ends with the crash (the paper's baseline)."""

    def should_rejuvenate(self, sample: MonitoringSample, history: Trace) -> bool:
        return False


class TimeBasedRejuvenationPolicy(RejuvenationPolicy):
    """Rejuvenate after a fixed amount of server uptime, aging or not.

    This is the strategy "widely used in real environments, such as web
    servers" that the paper wants to improve on: simple, but it restarts
    healthy servers and can still miss fast aging between two restarts.
    Sample times are measured from the server's (re)start, so the policy
    fires whenever the current uptime reaches the configured interval.
    """

    def __init__(self, interval_seconds: float) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        self.interval_seconds = float(interval_seconds)

    def should_rejuvenate(self, sample: MonitoringSample, history: Trace) -> bool:
        return sample.time_seconds >= self.interval_seconds

    def describe(self) -> str:
        return f"TimeBasedRejuvenationPolicy(every {self.interval_seconds:.0f}s of uptime)"


class PredictiveRejuvenationPolicy(RejuvenationPolicy):
    """Rejuvenate when the predicted time to failure falls below a threshold.

    Parameters
    ----------
    predictor:
        A fitted :class:`AgingPredictor`; its prediction on the history seen
        so far is the policy's only input.  The history's marks go through a
        one-stream feature bank as they arrive, which restarts whenever a new
        history (the simulator's next epoch) begins, so each mark costs
        O(window) however long the epoch runs.
    threshold_seconds:
        Rejuvenate once the predicted time to failure is at or below this
        value (enough headroom to drain in-flight sessions).
    consecutive:
        Require this many consecutive below-threshold predictions, filtering
        out single-sample blips.
    """

    def __init__(self, predictor: AgingPredictor, threshold_seconds: float = 600.0, consecutive: int = 2) -> None:
        if not predictor.is_fitted:
            raise ValueError("the predictor must be fitted before driving a rejuvenation policy")
        if threshold_seconds <= 0:
            raise ValueError("threshold_seconds must be positive")
        if consecutive < 1:
            raise ValueError("consecutive must be at least 1")
        self.predictor = predictor
        self.threshold_seconds = float(threshold_seconds)
        self.consecutive = consecutive
        self._streak = 0
        self._bank = FeatureBank(predictor.catalog)
        self._history: Trace | None = None
        self._row: np.ndarray | None = None

    def should_rejuvenate(self, sample: MonitoringSample, history: Trace) -> bool:
        if not history.samples:
            raise ValueError("cannot predict from an empty history")
        # The bank holds the first ``pushed`` marks of the current history;
        # another (or a shorter) history is a new epoch and starts afresh.
        pushed = self._bank.marks_pushed(0)
        if history is not self._history or len(history) < pushed:
            self._history, pushed = history, 0
            self._bank.reset(_STREAM)
        for mark in history.samples[pushed:]:
            self._row = self._bank.push(_STREAM, mark.time_seconds, raw_matrix([mark]))[0]
        predicted = self.predictor.predict_row(self._row)
        if predicted <= self.threshold_seconds:
            self._streak += 1
        else:
            self._streak = 0
        return self._streak >= self.consecutive

    def notify_rejuvenation(self, time_seconds: float) -> None:
        self._streak = 0

    def describe(self) -> str:
        return f"PredictiveRejuvenationPolicy(threshold {self.threshold_seconds:.0f}s)"
