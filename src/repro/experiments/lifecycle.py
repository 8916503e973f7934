"""The morphing-regime experiment: static champion versus managed lifecycle.

The scenario is the adaptation story the paper's Experiment 4.4 hints at but
never closes: a server ages under a plain memory leak -- exactly what the
deployed model was trained on -- and mid-run the fault *morphs* into a thread
leak the training set never contained.  The static champion keeps explaining
the world through memory speeds, sees the leak stop, and forecasts a long
healthy future while the thread pool marches toward exhaustion.  The managed
monitor (:class:`repro.lifecycle.ManagedOnlineMonitor`) sees its own
forecasts stop behaving like countdowns, declares drift, retrains a
challenger on the live window and recovers the TTF forecast before the crash.

Both monitors stream the *same* trace sample by sample, so the comparison
isolates the lifecycle: same data, same alarm rules, only the model
management differs.  Everything is seeded, so the drift marks, the gate
verdicts and the final error figures reproduce byte-for-byte, on the
event-driven engine and on the test suite's per-second reference loop
alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.online import OnlineAgingMonitor
from repro.core.predictor import AgingPredictor
from repro.experiments.runner import (
    run_memory_leak_trace,
    run_no_injection_trace,
    run_two_resource_trace,
)
from repro.experiments.scenarios import ExperimentScenarios
from repro.lifecycle import LifecycleConfig, ManagedOnlineMonitor
from repro.testbed.monitoring.collector import Trace

__all__ = [
    "LifecycleExperimentResult",
    "run_lifecycle_experiment",
    "run_morphing_trace",
    "train_static_champion",
]


@dataclass
class LifecycleExperimentResult:
    """Outcome of the morphing-scenario comparison."""

    trace: Trace
    morph_time_seconds: float
    static_predictions: np.ndarray
    managed_predictions: np.ndarray
    static_mae: float
    managed_mae: float
    static_post_morph_mae: float
    managed_post_morph_mae: float
    drift_times: tuple[float, ...]
    promotion_times: tuple[float, ...]
    rejection_times: tuple[float, ...]
    generations: int

    def lifecycle_wins(self) -> bool:
        """Did the managed monitor beat the static champion after the morph?"""
        return self.managed_post_morph_mae < self.static_post_morph_mae

    @property
    def post_morph_improvement(self) -> float:
        """Post-morph MAE saved by the lifecycle (positive = lifecycle better)."""
        return self.static_post_morph_mae - self.managed_post_morph_mae

    def summary(self) -> str:
        lines = [
            f"morph at t={self.morph_time_seconds:.0f}s, "
            f"crash at t={self.trace.crash_time_seconds:.0f}s "
            f"({self.trace.crash_resource})",
            f"drifts at {[round(t) for t in self.drift_times]}, "
            f"promotions at {[round(t) for t in self.promotion_times]}, "
            f"rejections at {[round(t) for t in self.rejection_times]}",
            f"post-morph MAE: static {self.static_post_morph_mae:.0f}s, "
            f"managed {self.managed_post_morph_mae:.0f}s "
            f"(saved {self.post_morph_improvement:.0f}s)",
            f"overall MAE: static {self.static_mae:.0f}s, managed {self.managed_mae:.0f}s",
        ]
        return "\n".join(lines)


def train_static_champion(
    scenarios: ExperimentScenarios, model: str = "m5p"
) -> AgingPredictor:
    """Fit the deployed model on memory-regime history only.

    One healthy run plus one memory-leak run per Experiment 4.2 training rate
    -- a perfectly reasonable production training set that simply contains no
    thread-leak execution, which is what makes the morph a true drift.
    """
    traces = [
        run_no_injection_trace(
            scenarios.config,
            scenarios.workload_42,
            duration_seconds=scenarios.healthy_run_seconds,
            seed=scenarios.seed_for(300),
        )
    ]
    rates = [rate for rate in scenarios.training_rates_42 if rate is not None]
    for index, rate in enumerate(rates):
        traces.append(
            run_memory_leak_trace(
                scenarios.config,
                scenarios.workload_42,
                n=rate,
                seed=scenarios.seed_for(301 + index),
                max_seconds=scenarios.morph_max_seconds,
            )
        )
    return AgingPredictor(model=model).fit(traces)


def run_morphing_trace(scenarios: ExperimentScenarios) -> Trace:
    """One run that opens as a memory leak and morphs into a thread leak."""
    trace = run_two_resource_trace(
        scenarios.config,
        scenarios.workload_42,
        phases=[
            (0.0, scenarios.morph_memory_n, None, None),
            (scenarios.morph_time_seconds, None, scenarios.morph_thread_m, scenarios.morph_thread_t),
        ],
        seed=scenarios.seed_for(350),
        max_seconds=scenarios.morph_max_seconds,
    )
    if not trace.crashed:
        raise RuntimeError(
            "the morphing scenario must end in a crash; "
            "raise morph_max_seconds or the thread-leak rate"
        )
    return trace


def run_lifecycle_experiment(
    scenarios: ExperimentScenarios | None = None,
    config: LifecycleConfig | None = None,
    model: str = "m5p",
) -> LifecycleExperimentResult:
    """Stream the morphing trace through a static and a managed monitor."""
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    lifecycle_config = (config if config is not None else LifecycleConfig()).for_testbed(
        active.config
    )

    champion = train_static_champion(active, model=model)
    trace = run_morphing_trace(active)

    static = OnlineAgingMonitor(champion)
    managed = ManagedOnlineMonitor(
        # The managed monitor gets its own champion instance so a promotion
        # cannot leak model state into the static baseline.
        champion=AgingPredictor(model=model).fit_dataset(champion.training_dataset),
        config=lifecycle_config,
        run="lifecycle",
    )
    for sample in trace:
        static.observe(sample)
        managed.observe(sample)
    managed.note_outcome(trace)

    times = trace.times()
    true_ttf = trace.time_to_failure()
    static_predictions = static.predicted_series()
    managed_predictions = managed.predicted_series()
    post = times >= active.morph_time_seconds
    if not bool(np.any(post)):
        raise RuntimeError("no monitoring marks after the morph; lengthen the run")

    return LifecycleExperimentResult(
        trace=trace,
        morph_time_seconds=active.morph_time_seconds,
        static_predictions=static_predictions,
        managed_predictions=managed_predictions,
        static_mae=float(np.mean(np.abs(static_predictions - true_ttf))),
        managed_mae=float(np.mean(np.abs(managed_predictions - true_ttf))),
        static_post_morph_mae=float(np.mean(np.abs(static_predictions[post] - true_ttf[post]))),
        managed_post_morph_mae=float(
            np.mean(np.abs(managed_predictions[post] - true_ttf[post]))
        ),
        drift_times=tuple(e.time_seconds for e in managed.events("drift_detected")),
        promotion_times=tuple(e.time_seconds for e in managed.events("champion_promoted")),
        rejection_times=tuple(e.time_seconds for e in managed.events("challenger_rejected")),
        generations=managed.generation,
    )
