"""The managed on-line monitor: drift detection plus champion/challenger swaps.

:class:`ManagedOnlineMonitor` is a drop-in for
:class:`~repro.core.online.OnlineAgingMonitor` (same ``observe`` /
``alarm_raised`` / ``predicted_series`` surface, so engines and experiments
can treat the two interchangeably) that closes the adaptation loop the paper
leaves open: the deployed model is a *champion* that can be dethroned.

Per monitoring mark the manager

1. forwards the sample to the wrapped monitor (predictions, alarms -- all
   unchanged semantics),
2. feeds the forecast-consistency residual to a rolling error tracker and a
   Page-Hinkley detector, and the monitored resource gauges to a
   domain-novelty test against the champion's own training range
   (:mod:`repro.lifecycle.drift`),
3. on confirmed drift trains a challenger on the recent live window with
   Equation (1) pseudo-labels (:mod:`repro.lifecycle.training`) and runs the
   promotion gate; a winning challenger replaces the champion *in place* --
   the streaming feature state is model-agnostic, so the swap costs nothing
   and the very next mark is predicted by the new model.

Every decision is instrumented on the telemetry ``sim`` channel (drift
events, promotions, rejections, per-model error gauges), stamped with
simulation ticks, so the lifecycle is visible in ``repro trace`` /
``repro stats`` and covered by the trace digest: two seeded runs must drift,
retrain and promote identically or the digest catches them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.core.dataset import INFINITE_TTF_SECONDS
from repro.core.online import OnlineAgingMonitor, OnlinePrediction
from repro.core.predictor import AgingPredictor
from repro.lifecycle.drift import (
    DomainNoveltyDetector,
    PageHinkleyDetector,
    RollingErrorTracker,
)
from repro.lifecycle.training import train_challenger
from repro.ml.naive import NaiveSlopePredictor
from repro.telemetry import Telemetry
from repro.telemetry import runtime as telemetry_runtime
from repro.testbed.monitoring.collector import MonitoringSample, Trace

__all__ = ["LifecycleConfig", "LifecycleEvent", "ManagedOnlineMonitor"]


@dataclass(frozen=True)
class LifecycleConfig:
    """Tuning knobs of the on-line model lifecycle.

    Defaults are sized in *marks* (15-second monitoring samples) and seconds
    of TTF residual; they are what the morphing-scenario experiment uses and
    what the ablation grid perturbs.
    """

    #: Sliding window (marks) of the rolling error tracker.
    error_window: int = 12
    #: Marks to observe after a (re)start before the drift test arms itself.
    warmup_marks: int = 16
    #: Page-Hinkley per-mark tolerance, in seconds of residual.
    drift_delta_seconds: float = 120.0
    #: Page-Hinkley alarm threshold, in accumulated seconds of residual.
    drift_threshold_seconds: float = 2000.0
    #: Consecutive over-threshold marks required to confirm drift (applies
    #: to the Page-Hinkley statistic and the domain-novelty streak alike).
    drift_persistence: int = 2
    #: Relative headroom above a gauge's training-range maximum before the
    #: domain-novelty test counts it as out-of-domain (0.25 = 25% above the
    #: largest value the champion's training rows ever reached).  Large
    #: enough that a stationary fleet's workload noise around the training
    #: levels stays quiet, small enough that a resource the model never saw
    #: climbing (the morph scenario's thread leak) crosses it within marks.
    novelty_margin_fraction: float = 0.25
    #: Drift-episode exit level, in seconds of drift signal: once the error
    #: tracker's window is full and the signal sits below this level, the
    #: episode is over and the Page-Hinkley test re-arms.  During a fast
    #: regime change each promoted model goes stale within marks (its leaves
    #: extrapolate outside the feature range they were fitted on), so the
    #: episode keeps retraining at the retry cadence until the current
    #: champion actually agrees with the Equation (1) reference again.
    drift_exit_seconds: float = 150.0
    #: Marks to wait after a drift episode *clears* before the change-point
    #: test re-arms.
    cooldown_marks: int = 20
    #: Marks between retrain attempts inside a drift episode.  Deliberately
    #: short: a challenger is a small-window fit and goes stale within marks
    #: when the regime keeps moving, so the episode keeps regenerating
    #: models at this cadence until the stream settles.
    retry_cooldown_marks: int = 2
    #: Marks between a confirmed drift and the first retrain attempt.  Drift
    #: is typically confirmed within a couple of marks of the regime change,
    #: when the window holds almost no post-change data and the Equation (1)
    #: pseudo-labellers have not yet locked onto the newly consumed resource;
    #: training immediately would gate a challenger that merely memorised
    #: the *old* regime's labels.  Waiting a few marks lets the new regime
    #: become observable before any model is fitted to it.
    retrain_delay_marks: int = 6
    #: Live-window size (marks) a challenger is trained on.
    training_window: int = 48
    #: Minimum marks in the buffer before a retrain is attempted.
    min_training_marks: int = 24
    #: Fraction of the window held out (strided, newest-anchored) for the gate.
    holdout_fraction: float = 0.25
    #: Gate scoring horizon: only stable holdout rows within this many of the
    #: window's newest marks count.  The incumbent was trained on almost the
    #: same labels as the challenger, so over the full window the two are
    #: near-ties; what distinguishes a stale champion is the *leading edge*,
    #: the regime the next predictions will face.
    gate_recent_marks: int = 12
    #: Challenger wins only when its MAE < margin * champion MAE on holdout.
    gate_margin: float = 0.9
    #: Learner the challengers use.  Constant-leaf trees by default: linear
    #: leaves fitted on a 48-mark window extrapolate wildly once the regime
    #: marches the features outside the trained range, while a constant leaf
    #: can at worst answer with a recently observed label.
    challenger_model: str = "tree"
    #: Min instances per leaf for tree challengers (small live windows).
    challenger_min_instances: int = 5
    #: Purity floor (fraction of root std) for challenger tree growth.  Much
    #: lower than the off-line 0.05: a live window mixes horizon-capped
    #: labels with near-crash countdowns, and the resulting root deviation
    #: would make the whole countdown region look "pure enough" to leave as
    #: one leaf.
    challenger_min_std_fraction: float = 0.01
    #: Sliding window (marks) of the Equation (1) pseudo-labellers and the
    #: reference estimators.  Shorter than the error window: the slope must
    #: react to an accelerating ramp, and twelve marks of lag was measured
    #: to cost more than the extra noise of eight.
    label_window: int = 8
    #: Max seconds a pseudo-label may deviate from the countdown implied by
    #: its predecessor before the row is dropped from challenger training
    #: (labels computed while the labeller's window straddles a regime
    #: boundary are garbage; this is how they are recognised).
    label_consistency_tolerance_seconds: float = 300.0
    #: Pseudo-label horizon cap (the paper's "infinite" 3 hours).
    horizon_seconds: float = INFINITE_TTF_SECONDS
    #: Old-generation capacity (MB) for memory references and pseudo-labels;
    #: ``None`` disables.  The old gen is the paper's actual aging resource:
    #: unlike total process memory it moves slowly and its exhaustion is the
    #: crash condition, so Equation (1) extrapolates it meaningfully.
    memory_capacity_mb: float | None = None
    #: Thread capacity for thread references and pseudo-labels; ``None``
    #: disables.
    thread_capacity: float | None = None
    #: Crashed traces kept as true-labelled training material.
    max_outcome_traces: int = 3

    def __post_init__(self) -> None:
        if self.error_window < 1:
            raise ValueError("error_window must be at least 1")
        if self.warmup_marks < 0:
            raise ValueError("warmup_marks cannot be negative")
        if self.drift_persistence < 1:
            raise ValueError("drift_persistence must be at least 1")
        if self.novelty_margin_fraction < 0:
            raise ValueError("novelty_margin_fraction cannot be negative")
        if self.drift_exit_seconds <= 0:
            raise ValueError("drift_exit_seconds must be positive")
        if self.cooldown_marks < 0:
            raise ValueError("cooldown_marks cannot be negative")
        if self.retry_cooldown_marks < 0:
            raise ValueError("retry_cooldown_marks cannot be negative")
        if self.retrain_delay_marks < 0:
            raise ValueError("retrain_delay_marks cannot be negative")
        if self.training_window < self.min_training_marks:
            raise ValueError("training_window cannot be smaller than min_training_marks")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.gate_recent_marks < 1:
            raise ValueError("gate_recent_marks must be at least 1")
        if self.gate_margin <= 0:
            raise ValueError("gate_margin must be positive")
        if self.challenger_model not in ("m5p", "linear", "tree"):
            raise ValueError("challenger_model must be 'm5p', 'linear' or 'tree'")
        if not 0.0 <= self.challenger_min_std_fraction < 1.0:
            raise ValueError("challenger_min_std_fraction must be in [0, 1)")
        if self.label_window < 2:
            raise ValueError("label_window must hold at least 2 observations")
        if self.label_consistency_tolerance_seconds <= 0:
            raise ValueError("label_consistency_tolerance_seconds must be positive")
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if self.max_outcome_traces < 0:
            raise ValueError("max_outcome_traces cannot be negative")

    def monitored_resources(self) -> list[tuple[str, float]]:
        """``(sample attribute, capacity)`` pairs the pseudo-labellers watch."""
        resources: list[tuple[str, float]] = []
        if self.memory_capacity_mb is not None:
            resources.append(("old_used_mb", float(self.memory_capacity_mb)))
        if self.thread_capacity is not None:
            resources.append(("num_threads", float(self.thread_capacity)))
        return resources

    def for_testbed(self, config) -> "LifecycleConfig":
        """Copy with capacities taken from a testbed config."""
        return replace(
            self,
            memory_capacity_mb=float(config.max_old_mb),
            thread_capacity=float(config.max_threads),
        )


@dataclass(frozen=True)
class LifecycleEvent:
    """One recorded lifecycle decision (mirrors the telemetry events)."""

    #: "drift_detected" | "drift_cleared" | "champion_promoted"
    #: | "challenger_rejected" | "challenger_skipped"
    kind: str
    time_seconds: float
    generation: int
    data: dict = field(default_factory=dict)


class ManagedOnlineMonitor:
    """Champion/challenger lifecycle around an :class:`OnlineAgingMonitor`.

    Parameters
    ----------
    champion:
        The initially deployed (fitted) predictor.
    config:
        Lifecycle tuning; capacities must be set for pseudo-labelling to
        watch any resource (see :meth:`LifecycleConfig.for_testbed`).
    alarm_threshold_seconds / alarm_consecutive:
        Forwarded to the wrapped monitor, unchanged semantics.
    run:
        Stable telemetry run label (a cluster node passes its node label so
        per-node lifecycle events stay attributable).
    """

    def __init__(
        self,
        champion: AgingPredictor,
        config: LifecycleConfig,
        alarm_threshold_seconds: float = 600.0,
        alarm_consecutive: int = 2,
        run: str = "lifecycle",
    ) -> None:
        if not config.monitored_resources():
            raise ValueError(
                "lifecycle needs at least one monitored resource capacity "
                "(set memory_capacity_mb / thread_capacity, e.g. via for_testbed)"
            )
        self.config = config
        self.champion = champion
        self.run = run
        self.monitor = OnlineAgingMonitor(
            champion,
            alarm_threshold_seconds=alarm_threshold_seconds,
            alarm_consecutive=alarm_consecutive,
        )
        self.telemetry: Telemetry | None = telemetry_runtime.active()
        self._clock = None  # optional shared clock; see bind_clock
        self.generation = 0
        self.history: list[LifecycleEvent] = []
        self._tracker = RollingErrorTracker(window=config.error_window)
        self._detector = PageHinkleyDetector(
            delta=config.drift_delta_seconds,
            threshold=config.drift_threshold_seconds,
            persistence=config.drift_persistence,
        )
        self._buffer: deque[MonitoringSample] = deque(maxlen=config.training_window)
        self._marks_since_reset = 0
        self._cooldown_remaining = 0
        self._retrain_countdown: int | None = None
        self._drifted = False
        self._outcome_traces: deque[Trace] = deque(maxlen=config.max_outcome_traces or None)
        self._references = self._fresh_references()
        self._novelty = self._fresh_novelty(champion)

    def _fresh_references(self) -> list[tuple[str, NaiveSlopePredictor]]:
        """Equation (1) estimators, one per exhaustible resource.

        They need no training, so they cannot drift: whatever resource the
        current regime consumes, its extrapolation reacts -- the regime-aware
        reference the champion's forecasts are compared against.
        """
        return [
            (
                attribute,
                NaiveSlopePredictor(
                    capacity=capacity,
                    window=self.config.label_window,
                    horizon_cap=self.config.horizon_seconds,
                ),
            )
            for attribute, capacity in self.config.monitored_resources()
        ]

    def _fresh_novelty(self, predictor: AgingPredictor) -> DomainNoveltyDetector:
        """Domain-novelty test against ``predictor``'s own training range.

        Bounds are the per-gauge maxima over the predictor's training rows;
        a monitored gauge the training set never recorded (feature-selected
        champions) simply goes untested.  Rebuilt on every promotion: the
        new champion's domain is whatever *it* was trained on, live window
        included.
        """
        bounds: dict[str, float] = {}
        dataset = predictor.training_dataset
        if dataset is not None:
            for attribute, _capacity in self.config.monitored_resources():
                if attribute in dataset.feature_names:
                    column = dataset.features[:, dataset.feature_names.index(attribute)]
                    bounds[attribute] = float(column.max())
        return DomainNoveltyDetector(
            bounds,
            margin_fraction=self.config.novelty_margin_fraction,
            persistence=self.config.drift_persistence,
        )

    def _reference_ttf(self, sample: MonitoringSample) -> float:
        """Feed the naive estimators one mark; return their minimum TTF."""
        estimate = self.config.horizon_seconds
        for attribute, naive in self._references:
            naive.observe(sample.time_seconds, float(getattr(sample, attribute)))
            estimate = min(estimate, naive.predict_time_to_failure())
        return estimate

    # -------------------------------------------------------------- telemetry

    def bind_clock(self, clock) -> None:
        """Stamp telemetry with a shared simulation clock's ticks.

        Cluster runs pass the fleet clock so lifecycle events sort into the
        same tick timeline as node events; stand-alone replays leave this
        unbound and ticks are derived from sample times.
        """
        self._clock = clock

    def _tick(self, time_seconds: float) -> int:
        if self._clock is not None:
            return int(self._clock.ticks)
        return int(round(time_seconds))

    def _record(self, kind: str, time_seconds: float, data: dict) -> None:
        self.history.append(
            LifecycleEvent(
                kind=kind, time_seconds=time_seconds, generation=self.generation, data=data
            )
        )
        if self.telemetry is not None:
            self.telemetry.count(f"lifecycle.{kind}")
            self.telemetry.event(
                f"lifecycle.{kind}",
                self._tick(time_seconds),
                run=self.run,
                data={"generation": self.generation, **data},
            )

    # ------------------------------------------------------- monitor protocol

    @property
    def predictions(self) -> list[OnlinePrediction]:
        return self.monitor.predictions

    @property
    def num_samples(self) -> int:
        return self.monitor.num_samples

    @property
    def alarm_raised(self) -> bool:
        return self.monitor.alarm_raised

    @property
    def alarm_time(self) -> float | None:
        return self.monitor.alarm_time

    def predicted_series(self) -> np.ndarray:
        return self.monitor.predicted_series()

    def replay(self, trace: Trace) -> list[OnlinePrediction]:
        return [self.observe(sample) for sample in trace]

    def reset(self) -> None:
        """Start a fresh incarnation (after rejuvenation) under the *current*
        champion -- knowledge won by past promotions survives restarts."""
        self.monitor.reset()
        self._tracker.reset()
        self._detector.reset()
        self._novelty.reset()
        self._buffer.clear()
        self._references = self._fresh_references()
        self._marks_since_reset = 0
        self._cooldown_remaining = 0
        self._retrain_countdown = None
        self._drifted = False
        if self.telemetry is not None:
            self.telemetry.count("lifecycle.resets")

    # ------------------------------------------------------------------ feed

    def observe(self, sample: MonitoringSample) -> OnlinePrediction:
        """Ingest one mark: predict, update the drift test, maybe retrain."""
        prediction = self.monitor.observe(sample)
        self._buffer.append(sample)
        self._marks_since_reset += 1
        self._tracker.push(
            sample.time_seconds,
            prediction.predicted_ttf_seconds,
            reference_ttf_seconds=self._reference_ttf(sample),
        )
        # Fed every mark so the persistence streak reflects the stream, not
        # the lifecycle state; whether a confirmed streak *triggers* anything
        # is decided by the armed/episode branches below.
        novel = self._novelty.update(
            {
                attribute: float(getattr(sample, attribute))
                for attribute, _capacity in self.config.monitored_resources()
            }
        )

        if self.telemetry is not None:
            self.telemetry.count("lifecycle.marks")
            self.telemetry.gauge(f"lifecycle.{self.run}.rolling_mae", self._tracker.rolling_mae)
            self.telemetry.gauge(
                f"lifecycle.{self.run}.reference_gap", self._tracker.rolling_reference_gap
            )
            self.telemetry.gauge(f"lifecycle.{self.run}.generation", self.generation)

        if self._retrain_countdown is not None:
            self._retrain_countdown -= 1
            if self._retrain_countdown <= 0:
                self._retrain_countdown = None
                self._attempt_retrain(sample.time_seconds)
            return prediction
        if self._cooldown_remaining > 0:
            self._cooldown_remaining -= 1
            return prediction
        if self._marks_since_reset <= self.config.warmup_marks:
            return prediction
        if self._drifted:
            # Inside a drift episode the change-point test is moot (the
            # change is known); what matters is whether the *current*
            # champion has caught up with the regime.  Exit only once the
            # stream is back inside the champion's domain and a full window
            # agrees with the reference; otherwise keep training challengers
            # at the retry cadence.
            if (
                not novel
                and self._tracker.num_errors >= self.config.error_window
                and self._tracker.drift_signal() < self.config.drift_exit_seconds
                and self._tracker.peak_reference_gap < self.config.drift_exit_seconds
            ):
                self._clear_drift(sample.time_seconds)
            else:
                self._attempt_retrain(sample.time_seconds)
            return prediction
        if novel:
            self._handle_drift(sample.time_seconds, trigger="novelty")
        elif self._detector.update(self._tracker.drift_signal()):
            self._handle_drift(sample.time_seconds, trigger="page_hinkley")
        return prediction

    def _handle_drift(self, time_seconds: float, trigger: str) -> None:
        data = {
            "trigger": trigger,
            "statistic": self._detector.statistic,
            "rolling_mae": self._tracker.rolling_mae,
            "reference_gap": self._tracker.rolling_reference_gap,
            "buffered_marks": len(self._buffer),
        }
        if trigger == "novelty" and self._novelty.novel_attribute is not None:
            data["novel_attribute"] = self._novelty.novel_attribute
            data["novel_value"] = self._novelty.novel_value
            data["novel_threshold"] = self._novelty.threshold(self._novelty.novel_attribute)
        self._record("drift_detected", time_seconds, data)
        # Entering the drift episode: retraining proceeds at the retry
        # cadence (first attempt after retrain_delay_marks, so the new
        # regime becomes observable) until the champion of the day agrees
        # with the Equation (1) reference again -- see observe().
        self._drifted = True
        if self.config.retrain_delay_marks > 0:
            self._retrain_countdown = self.config.retrain_delay_marks
        else:
            self._attempt_retrain(time_seconds)

    def _clear_drift(self, time_seconds: float) -> None:
        self._drifted = False
        self._record(
            "drift_cleared",
            time_seconds,
            {"signal": self._tracker.drift_signal(), "rolling_mae": self._tracker.rolling_mae},
        )
        # The episode is over: the Page-Hinkley evidence belongs to a dead
        # champion, and the settled stream gets a grace period before the
        # re-armed test starts accumulating again.
        self._detector.reset()
        self._cooldown_remaining = self.config.cooldown_marks

    def _attempt_retrain(self, time_seconds: float) -> None:
        self._cooldown_remaining = self.config.retry_cooldown_marks

        if len(self._buffer) < self.config.min_training_marks:
            self._record(
                "challenger_skipped",
                time_seconds,
                {"reason": "window_too_small", "buffered_marks": len(self._buffer)},
            )
            return
        try:
            challenger, decision = train_challenger(
                self.champion, list(self._buffer), list(self._outcome_traces), self.config
            )
        except ValueError as exc:
            # Too few stable pseudo-labels (window mid-transition): skip now,
            # the retry cooldown brings the next attempt on settled labels.
            self._record(
                "challenger_skipped",
                time_seconds,
                {"reason": str(exc), "buffered_marks": len(self._buffer)},
            )
            return
        verdict = {
            "champion_mae": decision.champion_mae,
            "challenger_mae": decision.challenger_mae,
            "holdout_rows": decision.holdout_rows,
            "training_rows": decision.training_rows,
        }
        if decision.promote:
            # Still inside the episode: the retry cooldown (set above) paces
            # the next look at the new champion; the long cooldown applies
            # only once the episode clears.
            self._promote(challenger, time_seconds, verdict)
        else:
            self._record("challenger_rejected", time_seconds, verdict)

    def _promote(self, challenger: AgingPredictor, time_seconds: float, verdict: dict) -> None:
        self.champion = challenger
        # The streaming feature state is catalogue-driven and model-agnostic:
        # swapping the predictor mid-stream changes nothing but the model that
        # scores the next row.
        self.monitor.predictor = challenger
        self.generation += 1
        # Residuals of the old model say nothing about the new one, and the
        # drift evidence accumulated against it should not condemn its
        # replacement -- tracker, change-point test and domain bounds all
        # restart against the new champion.
        self._tracker.reset()
        self._detector.reset()
        self._novelty = self._fresh_novelty(challenger)
        self._record("champion_promoted", time_seconds, verdict)
        if self.telemetry is not None:
            self.telemetry.gauge(f"lifecycle.{self.run}.generation", self.generation)

    # --------------------------------------------------------------- outcomes

    def note_outcome(self, trace: Trace) -> None:
        """Feed back a finished incarnation's trace (true labels, if crashed).

        Crashed traces are stashed as genuinely labelled training material
        for future challengers; the realized error of the predictions made
        against that incarnation is published as a gauge.
        """
        if self.telemetry is not None:
            self.telemetry.count("lifecycle.outcomes_observed")
        if not trace.crashed or trace.crash_time_seconds is None or not len(trace):
            return
        self._outcome_traces.append(trace)
        predicted = self.monitor.predicted_series()
        true_ttf = trace.time_to_failure()
        marks = min(predicted.shape[0], true_ttf.shape[0])
        if marks and self.telemetry is not None:
            realized = float(np.mean(np.abs(predicted[:marks] - true_ttf[:marks])))
            self.telemetry.gauge(f"lifecycle.{self.run}.realized_mae", realized)
            self.telemetry.event(
                "lifecycle.outcome_observed",
                self._tick(trace.crash_time_seconds),
                run=self.run,
                data={
                    "generation": self.generation,
                    "crash_resource": trace.crash_resource,
                    "marks": marks,
                    "realized_mae": realized,
                },
            )

    # ------------------------------------------------------------- inspection

    def events(self, kind: str | None = None) -> Iterator[LifecycleEvent]:
        """Recorded lifecycle events, optionally filtered by kind."""
        for event in self.history:
            if kind is None or event.kind == kind:
                yield event

    @property
    def num_drifts(self) -> int:
        return sum(1 for _ in self.events("drift_detected"))

    @property
    def num_promotions(self) -> int:
        return sum(1 for _ in self.events("champion_promoted"))
