"""Drivers that regenerate every experiment of the paper's Section 4.

Each module reproduces one experiment end to end -- generate the training
runs on the simulated testbed, train M5P and the Linear Regression baseline,
run the test scenario and score it with the paper's accuracy measures:

* :mod:`repro.experiments.exp41` -- deterministic aging (Table 3),
* :mod:`repro.experiments.exp42` -- dynamic, rate-changing aging (Figure 3),
* :mod:`repro.experiments.exp43` -- aging hidden in a periodic pattern, with
  expert feature selection (Figure 4 and Table 4),
* :mod:`repro.experiments.exp44` -- two simultaneous aging resources
  (Figure 5) plus the root-cause inspection,
* :mod:`repro.experiments.figures` -- the data series behind the two
  motivating figures (Figures 1 and 2),
* :mod:`repro.experiments.ablations` -- reproduction-specific ablations
  (sliding-window length, derived variables, smoothing, security margin),
* :mod:`repro.experiments.lifecycle` -- the adaptive-lifecycle extension:
  a morphing fault (memory leak turning into a thread leak) streamed
  through a static champion and the drift-detecting, retraining
  :class:`~repro.lifecycle.ManagedOnlineMonitor` side by side,
* :mod:`repro.experiments.cluster` -- the fleet-scale extension: coordinated
  rolling predictive rejuvenation of a load-balanced cluster versus the
  no-rejuvenation and uncoordinated time-based baselines.

``repro.experiments.scenarios`` holds the shared scenario definitions and
``repro.experiments.runner`` the trace-generation helpers they build on.

.. note::
   Calling the drivers below directly is soft-deprecated for experiment
   execution: every one of them is registered in :mod:`repro.api` and the
   preferred entry point is ``repro.api.run(name, **params)`` (or the
   ``repro`` CLI), which adds uniform ``scale``/``seed`` parameters and a
   serializable :class:`~repro.api.RunResult` envelope.
   The functions remain the underlying implementations and keep working.
"""

from repro.experiments.ablations import (
    run_derived_variable_ablation,
    run_security_margin_sweep,
    run_smoothing_ablation,
    run_window_sweep,
)
from repro.experiments.cluster import (
    ClusterExperimentResult,
    run_cluster_experiment,
    run_cluster_policy,
    train_cluster_predictor,
)
from repro.experiments.exp41 import Experiment41Result, run_experiment_41
from repro.experiments.exp42 import Experiment42Result, run_experiment_42
from repro.experiments.exp43 import Experiment43Result, run_experiment_43
from repro.experiments.exp44 import Experiment44Result, run_experiment_44
from repro.experiments.figures import figure1_series, figure2_series
from repro.experiments.lifecycle import (
    LifecycleExperimentResult,
    run_lifecycle_experiment,
    run_morphing_trace,
    train_static_champion,
)
from repro.experiments.runner import (
    run_memory_leak_trace,
    run_no_injection_trace,
    run_periodic_pattern_trace,
    run_thread_leak_trace,
    run_two_resource_trace,
)
from repro.experiments.scenarios import ClusterScenario, ExperimentScenarios

__all__ = [
    "ClusterExperimentResult",
    "ClusterScenario",
    "Experiment41Result",
    "Experiment42Result",
    "Experiment43Result",
    "Experiment44Result",
    "ExperimentScenarios",
    "LifecycleExperimentResult",
    "figure1_series",
    "figure2_series",
    "run_cluster_experiment",
    "run_cluster_policy",
    "run_derived_variable_ablation",
    "run_experiment_41",
    "run_experiment_42",
    "run_experiment_43",
    "run_experiment_44",
    "run_lifecycle_experiment",
    "run_memory_leak_trace",
    "run_morphing_trace",
    "run_no_injection_trace",
    "run_periodic_pattern_trace",
    "run_security_margin_sweep",
    "run_smoothing_ablation",
    "run_thread_leak_trace",
    "run_two_resource_trace",
    "run_window_sweep",
    "train_cluster_predictor",
    "train_static_champion",
]
