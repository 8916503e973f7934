"""On-line adaptive monitoring: one prediction per incoming monitoring mark.

The paper's title promises *adaptive on-line* prediction: metrics arrive
every 15 seconds and the model must keep re-estimating the time to failure
under whatever the current consumption regime is, reacting when the injection
rate changes (Experiment 4.2) and raising the alarm early enough for a
rejuvenation action to be scheduled.

``OnlineAgingMonitor`` wraps a fitted :class:`repro.core.predictor.AgingPredictor`
behind a streaming interface: feed it one :class:`MonitoringSample` at a time
and it returns the current prediction, tracking whether the rejuvenation
alarm threshold has been crossed.  The companion extended report of the paper
uses exactly this loop to drive a clean automatic recovery of the server.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.features import FeatureBank, raw_matrix
from repro.core.predictor import AgingPredictor
from repro.testbed.monitoring.collector import MonitoringSample, Trace

__all__ = ["OnlineAgingMonitor", "OnlinePrediction"]

#: The monitor's feature bank holds one stream.
_STREAM = np.zeros(1, dtype=np.intp)


@dataclass(frozen=True)
class OnlinePrediction:
    """The monitor's output after one monitoring mark."""

    time_seconds: float
    predicted_ttf_seconds: float
    alarm: bool

    @property
    def predicted_crash_time(self) -> float:
        """Absolute simulation time at which the crash is expected."""
        return self.time_seconds + self.predicted_ttf_seconds


class OnlineAgingMonitor:
    """Streaming wrapper around a fitted :class:`AgingPredictor`.

    Parameters
    ----------
    predictor:
        A fitted predictor (its feature window determines how much history
        the monitor keeps).
    alarm_threshold_seconds:
        When the predicted time to failure falls to or below this value the
        monitor raises its alarm flag -- the hook a rejuvenation policy would
        use to schedule a restart.
    alarm_consecutive:
        Number of consecutive below-threshold predictions required before the
        alarm fires, protecting against one-sample blips.
    """

    def __init__(
        self,
        predictor: AgingPredictor,
        alarm_threshold_seconds: float = 600.0,
        alarm_consecutive: int = 2,
    ) -> None:
        if not predictor.is_fitted:
            raise ValueError("the predictor must be fitted before it can monitor on-line")
        if alarm_threshold_seconds <= 0:
            raise ValueError("alarm_threshold_seconds must be positive")
        if alarm_consecutive < 1:
            raise ValueError("alarm_consecutive must be at least 1")
        self.predictor = predictor
        self.alarm_threshold_seconds = float(alarm_threshold_seconds)
        self.alarm_consecutive = alarm_consecutive
        # Only the feature window's worth of history is retained: predictions
        # are computed incrementally (see observe), so the monitor's memory
        # and per-mark cost stay O(window) however long the stream runs.
        self._recent: deque[MonitoringSample] = deque(maxlen=predictor.window + 1)
        self._bank = FeatureBank(predictor.catalog)
        self._num_observed = 0
        self._below_threshold_streak = 0
        self._alarm_raised = False
        self.predictions: list[OnlinePrediction] = []

    # ----------------------------------------------------------------- state

    @property
    def num_samples(self) -> int:
        return self._num_observed

    @property
    def recent_samples(self) -> list[MonitoringSample]:
        """The retained tail of the stream (up to ``window + 1`` marks)."""
        return list(self._recent)

    @property
    def alarm_raised(self) -> bool:
        """Whether the alarm has fired at any point of the stream so far."""
        return self._alarm_raised

    @property
    def alarm_time(self) -> float | None:
        """Time of the first alarming prediction, or ``None``."""
        for prediction in self.predictions:
            if prediction.alarm:
                return prediction.time_seconds
        return None

    def reset(self) -> None:
        """Forget all streamed samples and predictions (e.g. after rejuvenation)."""
        self._recent.clear()
        self._bank.reset(_STREAM)
        self._num_observed = 0
        self.predictions.clear()
        self._below_threshold_streak = 0
        self._alarm_raised = False

    # ------------------------------------------------------------------ feed

    def observe(self, sample: MonitoringSample) -> OnlinePrediction:
        """Ingest one monitoring mark and return the updated prediction.

        The derived variables are maintained incrementally (sliding windows
        need only the recent past), so the prediction at time t uses no
        future information and costs O(window) -- while staying bit-for-bit
        identical to re-predicting the full history at every mark.
        """
        if self._recent and sample.time_seconds <= self._recent[-1].time_seconds:
            raise ValueError("monitoring samples must arrive in strictly increasing time order")
        self._recent.append(sample)
        self._num_observed += 1
        row = self._bank.push(_STREAM, sample.time_seconds, raw_matrix([sample]))[0]
        predicted = self.predictor.predict_row(row)

        if predicted <= self.alarm_threshold_seconds:
            self._below_threshold_streak += 1
        else:
            self._below_threshold_streak = 0
        alarm = self._below_threshold_streak >= self.alarm_consecutive
        if alarm:
            self._alarm_raised = True
        prediction = OnlinePrediction(
            time_seconds=sample.time_seconds,
            predicted_ttf_seconds=predicted,
            alarm=alarm,
        )
        self.predictions.append(prediction)
        return prediction

    def replay(self, trace: Trace) -> list[OnlinePrediction]:
        """Stream a whole trace through the monitor and return all predictions."""
        return [self.observe(sample) for sample in trace]

    def predicted_series(self) -> np.ndarray:
        """Predicted TTF values of every mark observed so far."""
        return np.array([prediction.predicted_ttf_seconds for prediction in self.predictions])
