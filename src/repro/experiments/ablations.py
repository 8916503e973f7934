"""Ablations on the design choices the paper discusses but does not quantify.

The paper motivates three design decisions qualitatively:

* the **sliding-window length** is "a certain trade-off: a long window is
  more noise tolerant, but also makes the method slower to reflect changes"
  (Section 2.2);
* the **derived consumption-speed variables** are "the most important
  variable we add";
* M5P's **smoothing** and the 10 % **security margin** of S-MAE are taken as
  given.

Each ablation here quantifies one of those choices on the Experiment 4.2
scenario (dynamic aging), which is the setting where reaction speed and noise
tolerance pull in opposite directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.dataset import build_dataset
from repro.core.evaluation import evaluate_predictions
from repro.core.features import FeatureCatalog
from repro.core.predictor import AgingPredictor
from repro.experiments.runner import (
    run_dynamic_memory_trace,
    run_memory_leak_trace,
    run_no_injection_trace,
)
from repro.experiments.scenarios import ExperimentScenarios
from repro.testbed.monitoring.collector import Trace

__all__ = [
    "AblationPoint",
    "run_window_sweep",
    "run_derived_variable_ablation",
    "run_smoothing_ablation",
    "run_security_margin_sweep",
]


@dataclass(frozen=True)
class AblationPoint:
    """One configuration of an ablation and its resulting accuracy."""

    label: str
    mae_seconds: float
    s_mae_seconds: float
    post_mae_seconds: float


def _dynamic_scenario_traces(
    scenarios: ExperimentScenarios, engine: str = "event"
) -> tuple[list[Trace], Trace]:
    """Training and test traces of the Experiment 4.2 scenario."""
    workload = scenarios.workload_42
    training: list[Trace] = [
        run_no_injection_trace(
            scenarios.config,
            workload,
            duration_seconds=scenarios.healthy_run_seconds,
            seed=scenarios.seed_for(600),
            engine=engine,
        )
    ]
    for index, rate in enumerate(rate for rate in scenarios.training_rates_42 if rate is not None):
        training.append(
            run_memory_leak_trace(
                scenarios.config, workload, n=rate, seed=scenarios.seed_for(601 + index), engine=engine
            )
        )
    phases = [
        (index * scenarios.phase_seconds_42, rate) for index, rate in enumerate(scenarios.test_rates_42)
    ]
    test_trace = run_dynamic_memory_trace(
        scenarios.config, workload, phases=phases, seed=scenarios.seed_for(650), engine=engine
    )
    if not test_trace.crashed:
        raise RuntimeError("the dynamic ablation scenario did not crash")
    return training, test_trace


def _evaluate(predictor: AgingPredictor, test_trace: Trace, label: str) -> AblationPoint:
    evaluation = predictor.evaluate_trace(test_trace)
    return AblationPoint(
        label=label,
        mae_seconds=evaluation.mae_seconds,
        s_mae_seconds=evaluation.s_mae_seconds,
        post_mae_seconds=evaluation.post_mae_seconds,
    )


def run_window_sweep(
    scenarios: ExperimentScenarios | None = None,
    windows: Sequence[int] = (2, 6, 12, 24, 48),
    traces: tuple[list[Trace], Trace] | None = None,
    engine: str = "event",
) -> list[AblationPoint]:
    """Accuracy of M5P as a function of the sliding-window length."""
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    training, test_trace = traces if traces is not None else _dynamic_scenario_traces(active, engine)
    points = []
    for window in windows:
        predictor = AgingPredictor(model="m5p", window=window).fit(training)
        points.append(_evaluate(predictor, test_trace, label=f"window={window}"))
    return points


def run_derived_variable_ablation(
    scenarios: ExperimentScenarios | None = None,
    traces: tuple[list[Trace], Trace] | None = None,
    engine: str = "event",
) -> list[AblationPoint]:
    """M5P with the full Table 2 set versus raw metrics only."""
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    training, test_trace = traces if traces is not None else _dynamic_scenario_traces(active, engine)
    points = []
    for label, include_derived in (("raw+derived", True), ("raw only", False)):
        catalog = FeatureCatalog(include_derived=include_derived)
        dataset = build_dataset(training, catalog=catalog)
        predictor = AgingPredictor(model="m5p").fit_dataset(dataset)
        test_dataset = build_dataset([test_trace], catalog=catalog)
        predictions = predictor.predict_dataset(test_dataset)
        evaluation = evaluate_predictions(
            times=test_trace.times(),
            true_ttf=test_trace.time_to_failure(),
            predicted_ttf=predictions,
            crash_time=test_trace.crash_time_seconds,
        )
        points.append(
            AblationPoint(
                label=label,
                mae_seconds=evaluation.mae_seconds,
                s_mae_seconds=evaluation.s_mae_seconds,
                post_mae_seconds=evaluation.post_mae_seconds,
            )
        )
    return points


def run_smoothing_ablation(
    scenarios: ExperimentScenarios | None = None,
    traces: tuple[list[Trace], Trace] | None = None,
    engine: str = "event",
) -> list[AblationPoint]:
    """M5P with and without Quinlan's prediction smoothing."""
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    training, test_trace = traces if traces is not None else _dynamic_scenario_traces(active, engine)
    dataset = build_dataset(training)
    test_dataset = build_dataset([test_trace])
    points = []
    for label, smoothing in (("smoothing on", True), ("smoothing off", False)):
        predictor = AgingPredictor(model="m5p")
        predictor.fit_dataset(dataset)
        predictor.model.smoothing = smoothing
        predictions = predictor.predict_dataset(test_dataset)
        evaluation = evaluate_predictions(
            times=test_trace.times(),
            true_ttf=test_trace.time_to_failure(),
            predicted_ttf=predictions,
            crash_time=test_trace.crash_time_seconds,
        )
        points.append(
            AblationPoint(
                label=label,
                mae_seconds=evaluation.mae_seconds,
                s_mae_seconds=evaluation.s_mae_seconds,
                post_mae_seconds=evaluation.post_mae_seconds,
            )
        )
    return points


def run_security_margin_sweep(
    scenarios: ExperimentScenarios | None = None,
    margins: Sequence[float] = (0.0, 0.05, 0.10, 0.20, 0.30),
    traces: tuple[list[Trace], Trace] | None = None,
    engine: str = "event",
) -> list[AblationPoint]:
    """S-MAE of M5P as a function of the security margin (10 % in the paper)."""
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    training, test_trace = traces if traces is not None else _dynamic_scenario_traces(active, engine)
    predictor = AgingPredictor(model="m5p").fit(training)
    predictions = predictor.predict_trace(test_trace)
    points = []
    for margin in margins:
        evaluation = evaluate_predictions(
            times=test_trace.times(),
            true_ttf=test_trace.time_to_failure(),
            predicted_ttf=predictions,
            crash_time=test_trace.crash_time_seconds,
            security_margin=margin,
        )
        points.append(
            AblationPoint(
                label=f"margin={margin:.0%}",
                mae_seconds=evaluation.mae_seconds,
                s_mae_seconds=evaluation.s_mae_seconds,
                post_mae_seconds=evaluation.post_mae_seconds,
            )
        )
    return points
