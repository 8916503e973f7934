"""Experiment 4.3 -- aging hidden inside a periodic pattern (Figure 4, Table 4).

Setup (Section 4.3): the application cycles through 20-minute phases of
normal behaviour, memory acquisition (``N = 30``) and memory release
(``N = 75``) under a constant 100-EB workload.  Because release is slower
than acquisition some memory is retained every cycle, so the run eventually
crashes -- aging masked by a periodic pattern.  The training set is the same
as Experiment 4.2 (no periodic executions at all).

The paper's first attempt with the full variable set gave poor results; an
expert feature selection keeping only the Java-Heap-related variables fixed
it.  Table 4 reports, for the selected variable set, MAE 3:34 / S-MAE 0:21 /
PRE-MAE 3:31 / POST-MAE 5:29 for M5P against 15:57 / 4:53 / 16:10 / 8:14 for
Linear Regression.  ``run_experiment_43`` regenerates both the full-set and
the selected-set figures so the value of the selection step is visible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import PredictionEvaluation, format_duration
from repro.core.feature_selection import select_heap_variables
from repro.core.predictor import AgingPredictor
from repro.experiments.runner import (
    run_memory_leak_trace,
    run_no_injection_trace,
    run_periodic_pattern_trace,
)
from repro.experiments.scenarios import ExperimentScenarios
from repro.testbed.monitoring.collector import Trace

__all__ = ["Experiment43Result", "run_experiment_43"]


@dataclass
class Experiment43Result:
    """Accuracy of the full and heap-selected variable sets (Table 4)."""

    m5p_selected: PredictionEvaluation
    linear_selected: PredictionEvaluation
    m5p_full: PredictionEvaluation
    linear_full: PredictionEvaluation
    times: np.ndarray
    true_ttf: np.ndarray
    predicted_ttf_selected: np.ndarray
    jvm_heap_used_mb: np.ndarray
    selected_m5p_leaves: int = 0
    selected_m5p_inner_nodes: int = 0
    test_duration_seconds: float = 0.0

    def table4_rows(self) -> list[tuple[str, str, str]]:
        """Rows shaped like the paper's Table 4 (feature-selected models)."""
        rows = []
        for metric in ("MAE", "S-MAE", "PRE-MAE", "POST-MAE"):
            rows.append(
                (
                    metric,
                    format_duration(self.linear_selected.as_dict()[metric]),
                    format_duration(self.m5p_selected.as_dict()[metric]),
                )
            )
        return rows

    def format_table(self) -> str:
        lines = [f"{'':12s}{'Lin Reg':>18s}{'M5P':>18s}"]
        for label, linear, m5p in self.table4_rows():
            lines.append(f"{label:12s}{linear:>18s}{m5p:>18s}")
        return "\n".join(lines)

    def figure4_series(self) -> dict[str, np.ndarray]:
        """The Figure 4 curves: predicted time and the Java heap evolution."""
        return {
            "time_seconds": self.times,
            "predicted_ttf_seconds": self.predicted_ttf_selected,
            "jvm_heap_used_mb": self.jvm_heap_used_mb,
        }

    def selection_helps_m5p(self) -> bool:
        """Whether the heap-variable selection improves M5P (the paper's point)."""
        return self.m5p_selected.mae_seconds <= self.m5p_full.mae_seconds

    def m5p_wins(self) -> bool:
        return self.m5p_selected.mae_seconds < self.linear_selected.mae_seconds


def run_experiment_43(
    scenarios: ExperimentScenarios | None = None,
) -> Experiment43Result:
    """Regenerate Experiment 4.3 / Figure 4 / Table 4.

    Prefer the unified entry point ``repro.api.run("exp43", ...)``; this
    function remains as the underlying driver.
    """
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    workload = active.workload_42

    training: list[Trace] = [
        run_no_injection_trace(
            active.config,
            workload,
            duration_seconds=active.healthy_run_seconds,
            seed=active.seed_for(300),
        )
    ]
    for index, rate in enumerate(rate for rate in active.training_rates_42 if rate is not None):
        training.append(
            run_memory_leak_trace(
                active.config, workload, n=rate, seed=active.seed_for(301 + index)
            )
        )

    test_trace = run_periodic_pattern_trace(
        active.config,
        workload,
        phase_duration_s=active.phase_seconds_43,
        acquire_n=active.acquire_n_43,
        release_n=active.release_n_43,
        full_release=False,
        seed=active.seed_for(350),
        max_seconds=24 * 3600.0,
    )
    if not test_trace.crashed:
        raise RuntimeError(
            "the periodic-pattern run did not crash; the retained memory per cycle is too small"
        )

    heap_features = select_heap_variables()
    m5p_selected = AgingPredictor(model="m5p", feature_names=heap_features).fit(training)
    linear_selected = AgingPredictor(model="linear", feature_names=heap_features).fit(training)
    m5p_full = AgingPredictor(model="m5p").fit(training)
    linear_full = AgingPredictor(model="linear").fit(training)

    heap_used = test_trace.series("young_used_mb") + test_trace.series("old_used_mb")
    return Experiment43Result(
        m5p_selected=m5p_selected.evaluate_trace(test_trace),
        linear_selected=linear_selected.evaluate_trace(test_trace),
        m5p_full=m5p_full.evaluate_trace(test_trace),
        linear_full=linear_full.evaluate_trace(test_trace),
        times=test_trace.times(),
        true_ttf=test_trace.time_to_failure(),
        predicted_ttf_selected=m5p_selected.predict_trace(test_trace),
        jvm_heap_used_mb=heap_used,
        selected_m5p_leaves=m5p_selected.num_leaves or 0,
        selected_m5p_inner_nodes=m5p_selected.num_inner_nodes or 0,
        test_duration_seconds=test_trace.crash_time_seconds or test_trace.duration_seconds,
    )
