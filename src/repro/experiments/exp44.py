"""Experiment 4.4 -- aging caused by two resources at once (Figure 5).

Setup (Section 4.4): memory and threads are injected simultaneously, with
rates that change every 30 minutes: a no-injection phase, then
``N = 30 / M = 30, T = 90``, then ``N = 15 / M = 15, T = 120``, and finally
``N = 75 / M = 45, T = 60`` until the crash.  Crucially, the training set
never contains a run where both resources age at the same time: it holds
memory-only runs (``N = 15, 30, 75``) and thread-only runs
(``(M, T) = (15, 120), (30, 90), (45, 60)``), six executions in total.

The paper reports MAE 16:52, S-MAE 13:22, PRE-MAE 18:16 and POST-MAE 2:05 on
a run lasting 1 h 55 min, and closes with the root-cause observation: the
top levels of the learned tree test the system memory and the number of
threads, pointing an administrator at the two resources actually involved.
``run_experiment_44`` reproduces the accuracy figures, the Figure 5 series
and that root-cause inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.evaluation import PredictionEvaluation
from repro.core.feature_selection import select_heap_variables
from repro.core.features import FeatureCatalog
from repro.core.predictor import AgingPredictor
from repro.core.root_cause import RootCauseReport, analyse_root_cause
from repro.experiments.runner import (
    run_memory_leak_trace,
    run_thread_leak_trace,
    run_two_resource_trace,
)
from repro.experiments.scenarios import ExperimentScenarios
from repro.testbed.monitoring.collector import Trace

__all__ = ["Experiment44Result", "run_experiment_44"]


@dataclass
class Experiment44Result:
    """Accuracy, Figure 5 series and root-cause report of Experiment 4.4."""

    m5p_evaluation: PredictionEvaluation
    linear_evaluation: PredictionEvaluation
    root_cause: RootCauseReport
    times: np.ndarray
    predicted_ttf: np.ndarray
    true_ttf: np.ndarray
    tomcat_memory_mb: np.ndarray
    num_threads: np.ndarray
    phase_starts: tuple[float, ...]
    crash_resource: str = ""
    training_instances: int = 0
    m5p_leaves: int = 0
    m5p_inner_nodes: int = 0
    test_duration_seconds: float = 0.0

    def figure5_series(self) -> dict[str, np.ndarray]:
        """The Figure 5 curves: prediction, memory and thread evolution."""
        return {
            "time_seconds": self.times,
            "predicted_ttf_seconds": self.predicted_ttf,
            "tomcat_memory_mb": self.tomcat_memory_mb,
            "num_threads": self.num_threads,
        }

    def implicates_memory_and_threads(self) -> bool:
        """Whether the tree inspection points at both injected resources."""
        implicated = {name for name, _score in self.root_cause.resources}
        return bool(implicated & {"memory", "heap", "system"}) and "threads" in implicated


def run_experiment_44(
    scenarios: ExperimentScenarios | None = None,
) -> Experiment44Result:
    """Regenerate Experiment 4.4 / Figure 5 and the root-cause inspection.

    Prefer the unified entry point ``repro.api.run("exp44", ...)``; this
    function remains as the underlying driver.
    """
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    workload = active.workload_42

    training: list[Trace] = []
    for index, rate in enumerate(active.memory_rates_44):
        training.append(
            run_memory_leak_trace(
                active.config, workload, n=rate, seed=active.seed_for(400 + index)
            )
        )
    for index, (m, t) in enumerate(active.thread_rates_44):
        training.append(
            run_thread_leak_trace(
                active.config, workload, m=m, t=t, seed=active.seed_for(410 + index)
            )
        )

    phases = [
        (index * active.phase_seconds_44, n, m, t)
        for index, (n, m, t) in enumerate(active.test_phases_44)
    ]
    test_trace = run_two_resource_trace(
        active.config, workload, phases=phases, seed=active.seed_for(450)
    )
    if not test_trace.crashed:
        raise RuntimeError("the two-resource run did not crash; increase the injection rates")

    # The paper's two-resource experiment keeps the heap internals out of the
    # picture (as in Experiment 4.1): the point is that the model must find
    # the implicated resources from the system-level metrics alone.
    catalog = FeatureCatalog()
    heap_names = set(select_heap_variables(catalog))
    feature_names = [name for name in catalog.feature_names if name not in heap_names]

    m5p = AgingPredictor(model="m5p", feature_names=feature_names).fit(training)
    linear = AgingPredictor(model="linear", feature_names=feature_names).fit(training)

    return Experiment44Result(
        m5p_evaluation=m5p.evaluate_trace(test_trace),
        linear_evaluation=linear.evaluate_trace(test_trace),
        root_cause=analyse_root_cause(m5p.model),
        times=test_trace.times(),
        predicted_ttf=m5p.predict_trace(test_trace),
        true_ttf=test_trace.time_to_failure(),
        tomcat_memory_mb=test_trace.series("tomcat_memory_used_mb"),
        num_threads=test_trace.series("num_threads"),
        phase_starts=tuple(start for start, *_rest in phases),
        crash_resource=test_trace.crash_resource or "",
        training_instances=m5p.num_training_instances,
        m5p_leaves=m5p.num_leaves or 0,
        m5p_inner_nodes=m5p.num_inner_nodes or 0,
        test_duration_seconds=test_trace.crash_time_seconds or test_trace.duration_seconds,
    )
