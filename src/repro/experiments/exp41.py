"""Experiment 4.1 -- deterministic software aging (the paper's Table 3).

Setup (Section 4.1 of the paper): a 1 MB memory leak with ``N = 30`` is
injected through the search servlet.  The model is trained on four runs at
25, 50, 100 and 200 emulated browsers, each executed until Tomcat crashes,
and evaluated on two unseen workloads (75 and 150 EBs).  The paper notes
that the heap-internal variables were *not* used in this experiment, so the
predictors here train on the non-heap subset of Table 2.

Table 3 reports MAE, S-MAE, PRE-MAE and POST-MAE for Linear Regression and
M5P on both test workloads; :func:`run_experiment_41` regenerates exactly
those rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.evaluation import PredictionEvaluation, format_duration
from repro.core.feature_selection import select_heap_variables
from repro.core.features import FeatureCatalog
from repro.core.predictor import AgingPredictor
from repro.experiments.runner import run_memory_leak_trace
from repro.experiments.scenarios import ExperimentScenarios
from repro.testbed.monitoring.collector import Trace

__all__ = ["Experiment41Result", "run_experiment_41"]


@dataclass
class Experiment41Result:
    """Everything the paper reports for Experiment 4.1.

    ``evaluations`` maps ``(test_workload, model_name)`` to the accuracy
    figures; model size and training-set size mirror the numbers quoted in
    the text (33 leaves / 30 inner nodes / 2776 instances in the paper).
    """

    evaluations: dict[tuple[int, str], PredictionEvaluation] = field(default_factory=dict)
    training_instances: int = 0
    m5p_leaves: int = 0
    m5p_inner_nodes: int = 0
    training_workloads: tuple[int, ...] = ()
    test_workloads: tuple[int, ...] = ()

    def table3_rows(self) -> list[tuple[str, str, str]]:
        """Rows shaped like the paper's Table 3: (row label, LinReg, M5P)."""
        rows: list[tuple[str, str, str]] = []
        for workload in self.test_workloads:
            for metric in ("MAE", "S-MAE", "PRE-MAE", "POST-MAE"):
                linear = self.evaluations[(workload, "linear")].as_dict()[metric]
                m5p = self.evaluations[(workload, "m5p")].as_dict()[metric]
                rows.append((f"{workload}EBs {metric}", format_duration(linear), format_duration(m5p)))
        return rows

    def format_table(self) -> str:
        """Render Table 3 as fixed-width text."""
        lines = [f"{'':24s}{'Lin. Reg':>18s}{'M5P':>18s}"]
        for label, linear, m5p in self.table3_rows():
            lines.append(f"{label:24s}{linear:>18s}{m5p:>18s}")
        return "\n".join(lines)

    def m5p_wins(self, metric: str = "MAE") -> bool:
        """Whether M5P beats Linear Regression on every test workload."""
        return all(
            self.evaluations[(workload, "m5p")].as_dict()[metric]
            < self.evaluations[(workload, "linear")].as_dict()[metric]
            for workload in self.test_workloads
        )


def _non_heap_feature_names() -> list[str]:
    """The Table 2 variable set without the heap internals (paper, Sec. 4.1)."""
    catalog = FeatureCatalog()
    heap_names = set(select_heap_variables(catalog))
    return [name for name in catalog.feature_names if name not in heap_names]


def run_experiment_41(
    scenarios: ExperimentScenarios | None = None,
    traces: dict[int, Trace] | None = None,
) -> Experiment41Result:
    """Regenerate Experiment 4.1 / Table 3.

    Prefer the unified entry point ``repro.api.run("exp41", ...)``; this
    function remains as the underlying driver.

    Parameters
    ----------
    scenarios:
        Experiment parameters; defaults to the paper-scale configuration.
    traces:
        Optional pre-generated traces keyed by workload (useful to share runs
        between the experiment and ablations); missing workloads are
        simulated on demand.
    """
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    cache = dict(traces) if traces is not None else {}

    def trace_for(workload: int, run_index: int) -> Trace:
        if workload not in cache:
            cache[workload] = run_memory_leak_trace(
                active.config,
                workload_ebs=workload,
                n=active.memory_n_41,
                seed=active.seed_for(run_index),
            )
        return cache[workload]

    training = [trace_for(workload, index) for index, workload in enumerate(active.training_workloads_41)]
    tests = {
        workload: trace_for(workload, 100 + index)
        for index, workload in enumerate(active.test_workloads_41)
    }

    feature_names = _non_heap_feature_names()
    m5p = AgingPredictor(model="m5p", feature_names=feature_names).fit(training)
    linear = AgingPredictor(model="linear", feature_names=feature_names).fit(training)

    result = Experiment41Result(
        training_instances=m5p.num_training_instances,
        m5p_leaves=m5p.num_leaves or 0,
        m5p_inner_nodes=m5p.num_inner_nodes or 0,
        training_workloads=tuple(active.training_workloads_41),
        test_workloads=tuple(active.test_workloads_41),
    )
    for workload, trace in tests.items():
        result.evaluations[(workload, "m5p")] = m5p.evaluate_trace(trace)
        result.evaluations[(workload, "linear")] = linear.evaluate_trace(trace)
    return result
