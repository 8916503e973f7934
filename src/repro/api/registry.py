"""The experiment registry and the single ``run()`` dispatcher.

Every driver in :mod:`repro.experiments` is wrapped by exactly one
:class:`~repro.api.spec.ExperimentSpec` here.  An adapter translates the
driver's bespoke result dataclass into the uniform ``metrics``/``series``
payload of :class:`~repro.api.result.RunResult`; the legacy dataclasses (and
their richer methods — formatted tables, figure helpers) remain reachable
through the original functions.

Scenario resolution is shared: ``scale="small"`` maps to the fast,
scaled-down scenario configurations the tests use, ``scale="paper"`` to the
paper-scale ones, and ``seed`` feeds the scenario's master seed — so two
``run()`` calls with equal parameters produce equal (and equal-serializing)
results.

That purity is load-bearing beyond reproducibility: the sweep orchestrator
(:mod:`repro.api.executor`) dispatches ``run()`` calls to worker processes
and the result store (:mod:`repro.api.store`) substitutes an on-disk
envelope for a run outright, both on the strength of ``(name, resolved
params, version)`` fully determining the result.  Adapters must therefore
never read ambient state (wall clock, environment, global RNGs) that is not
derived from their resolved parameters.
"""

from __future__ import annotations

import fnmatch
import time
from dataclasses import replace
from typing import Any, Callable

import repro
from repro.api.result import RunResult
from repro.api.spec import CLUSTER_ENGINES, ExperimentSpec, ParamSpec, common_params
from repro.core.evaluation import PredictionEvaluation
from repro.experiments.ablations import (
    run_derived_variable_ablation,
    run_security_margin_sweep,
    run_smoothing_ablation,
    run_window_sweep,
)
from repro.experiments.cluster import run_cluster_experiment
from repro.experiments.exp41 import run_experiment_41
from repro.experiments.exp42 import run_experiment_42
from repro.experiments.exp43 import run_experiment_43
from repro.experiments.exp44 import run_experiment_44
from repro.experiments.figures import figure1_series, figure2_series
from repro.experiments.lifecycle import run_lifecycle_experiment
from repro.experiments.scenarios import CLUSTER_SCENARIO_KINDS, ClusterScenario, ExperimentScenarios
from repro.lifecycle import LifecycleConfig
from repro.telemetry import Telemetry, activate

__all__ = ["REGISTRY", "register", "get_spec", "list_experiments", "match_experiments", "run"]

#: Name -> spec; insertion order is the presentation order of ``repro list``.
REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (names are unique)."""
    if spec.name in REGISTRY:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    REGISTRY[spec.name] = spec
    return spec


def get_spec(name: str) -> ExperimentSpec:
    """Look up one spec, with a helpful error listing valid names."""
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; registered: {known}") from None


def list_experiments() -> tuple[str, ...]:
    """Every registered experiment name, in presentation order."""
    return tuple(REGISTRY)


def match_experiments(pattern: str) -> list[str]:
    """Registered names matching a shell-style pattern, in registry order."""
    matches = [name for name in REGISTRY if fnmatch.fnmatch(name, pattern)]
    if not matches:
        raise ValueError(
            f"no experiment matches {pattern!r}; registered: " + ", ".join(REGISTRY)
        )
    return matches


def run(name: str, *, telemetry: Telemetry | None = None, **params: Any) -> RunResult:
    """Run a registered experiment and return the uniform result envelope.

    ``params`` override the spec's declared defaults; unknown names raise.
    The returned :class:`RunResult` serializes losslessly via ``to_json`` /
    ``from_json`` and is byte-stable across same-seed runs.

    Passing a :class:`~repro.telemetry.Telemetry` hub activates it for the
    duration of the run: every engine the experiment constructs instruments
    itself against the hub, the run's identity is stamped into the hub's
    trace metadata, and the resulting sim-channel digest is recorded on
    ``result.telemetry_digest``.  Instrumentation never changes the
    simulated results — a traced run returns an envelope byte-identical to
    an untraced one.
    """
    spec = get_spec(name)
    resolved = spec.resolve(params)
    started = time.perf_counter()
    if telemetry is None:
        metrics, series = spec.runner(**resolved)
    else:
        # The cluster spec's engine parameter stays out of the trace meta,
        # which is part of the sim-channel digest: the fluid tier's events
        # already mark it, and leaving the parameter out keeps published
        # cluster digests valid.
        meta_params = {key: value for key, value in resolved.items() if key != "engine"}
        telemetry.meta = {"experiment": spec.name, "params": meta_params}
        with activate(telemetry):
            metrics, series = spec.runner(**resolved)
    elapsed = time.perf_counter() - started
    result = RunResult.build(
        name=spec.name,
        description=spec.description,
        category=spec.category,
        params=resolved,
        metrics=metrics,
        series=series,
        version=repro.__version__,
        wall_clock_seconds=elapsed,
    )
    if telemetry is not None:
        telemetry.profile("experiment.run", elapsed)
        result.telemetry_digest = telemetry.digest()
    return result


# --------------------------------------------------------------------------
# shared scenario resolution and payload helpers
# --------------------------------------------------------------------------


def _scenarios(scale: str, seed: int) -> ExperimentScenarios:
    if scale == "small":
        return ExperimentScenarios.fast(seed=seed)
    return ExperimentScenarios.paper_scale(seed=seed)


def _cluster_scenario(scale: str, seed: int, kind: str) -> ClusterScenario:
    base = ClusterScenario.fast(kind=kind) if scale == "small" else ClusterScenario.paper_scale(kind=kind)
    return replace(base, cluster_seed=seed)


def _eval_metrics(prefix: str, evaluation: PredictionEvaluation) -> dict[str, Any]:
    """Flatten one PredictionEvaluation under a dotted metric prefix."""
    return {
        f"{prefix}.mae_seconds": evaluation.mae_seconds,
        f"{prefix}.s_mae_seconds": evaluation.s_mae_seconds,
        f"{prefix}.pre_mae_seconds": evaluation.pre_mae_seconds,
        f"{prefix}.post_mae_seconds": evaluation.post_mae_seconds,
        f"{prefix}.num_samples": evaluation.num_samples,
    }


Payload = tuple[dict[str, Any], dict[str, list[float]]]


# --------------------------------------------------------------------------
# adapters: Section 4 experiments
# --------------------------------------------------------------------------


def _run_exp41(scale: str, seed: int) -> Payload:
    result = run_experiment_41(_scenarios(scale, seed))
    metrics: dict[str, Any] = {
        "training_instances": result.training_instances,
        "m5p_leaves": result.m5p_leaves,
        "m5p_inner_nodes": result.m5p_inner_nodes,
        "m5p_wins": bool(result.m5p_wins()),
    }
    for (workload, model), evaluation in sorted(result.evaluations.items()):
        metrics.update(_eval_metrics(f"{workload}ebs.{model}", evaluation))
    series = {
        "training_workloads": list(result.training_workloads),
        "test_workloads": list(result.test_workloads),
    }
    return metrics, series


def _run_exp42(scale: str, seed: int) -> Payload:
    result = run_experiment_42(_scenarios(scale, seed))
    metrics: dict[str, Any] = {
        "training_instances": result.training_instances,
        "m5p_leaves": result.m5p_leaves,
        "m5p_inner_nodes": result.m5p_inner_nodes,
        "test_duration_seconds": result.test_duration_seconds,
        "adapts_to_injection_start": bool(result.adapts_to_injection_start()),
    }
    metrics.update(_eval_metrics("m5p", result.m5p_evaluation))
    metrics.update(_eval_metrics("linear", result.linear_evaluation))
    series = {
        "time_seconds": list(result.times),
        "predicted_ttf_seconds": list(result.predicted_ttf),
        "true_ttf_seconds": list(result.true_ttf),
        "tomcat_memory_mb": list(result.tomcat_memory_mb),
        "phase_starts_seconds": list(result.phase_starts),
    }
    return metrics, series


def _run_exp43(scale: str, seed: int) -> Payload:
    result = run_experiment_43(_scenarios(scale, seed))
    metrics: dict[str, Any] = {
        "selected_m5p_leaves": result.selected_m5p_leaves,
        "selected_m5p_inner_nodes": result.selected_m5p_inner_nodes,
        "test_duration_seconds": result.test_duration_seconds,
        "selection_helps_m5p": bool(result.selection_helps_m5p()),
        "m5p_wins": bool(result.m5p_wins()),
    }
    metrics.update(_eval_metrics("m5p_selected", result.m5p_selected))
    metrics.update(_eval_metrics("linear_selected", result.linear_selected))
    metrics.update(_eval_metrics("m5p_full", result.m5p_full))
    metrics.update(_eval_metrics("linear_full", result.linear_full))
    series = {
        "time_seconds": list(result.times),
        "true_ttf_seconds": list(result.true_ttf),
        "predicted_ttf_selected_seconds": list(result.predicted_ttf_selected),
        "jvm_heap_used_mb": list(result.jvm_heap_used_mb),
    }
    return metrics, series


def _run_exp44(scale: str, seed: int) -> Payload:
    result = run_experiment_44(_scenarios(scale, seed))
    metrics: dict[str, Any] = {
        "training_instances": result.training_instances,
        "m5p_leaves": result.m5p_leaves,
        "m5p_inner_nodes": result.m5p_inner_nodes,
        "test_duration_seconds": result.test_duration_seconds,
        "crash_resource": result.crash_resource,
        "primary_resource": result.root_cause.primary_resource,
        "implicates_memory_and_threads": bool(result.implicates_memory_and_threads()),
    }
    metrics.update(_eval_metrics("m5p", result.m5p_evaluation))
    metrics.update(_eval_metrics("linear", result.linear_evaluation))
    for resource, score in result.root_cause.resources:
        metrics[f"root_cause_score.{resource}"] = score
    series = {
        "time_seconds": list(result.times),
        "predicted_ttf_seconds": list(result.predicted_ttf),
        "true_ttf_seconds": list(result.true_ttf),
        "tomcat_memory_mb": list(result.tomcat_memory_mb),
        "num_threads": list(result.num_threads),
        "phase_starts_seconds": list(result.phase_starts),
    }
    return metrics, series


# --------------------------------------------------------------------------
# adapters: motivating figures
# --------------------------------------------------------------------------


def _run_figure1(scale: str, seed: int) -> Payload:
    result = figure1_series(_scenarios(scale, seed))
    metrics: dict[str, Any] = {
        "crash_time_seconds": result.crash_time_seconds,
        "extra_life_seconds": result.extra_life_seconds(),
        "has_flat_zones": bool(result.has_flat_zones()),
        "num_old_resizes": len(result.old_resize_times),
    }
    series = {
        "time_seconds": list(result.time_seconds),
        "os_memory_mb": list(result.os_memory_mb),
        "jvm_heap_used_mb": list(result.jvm_heap_used_mb),
        "old_resize_times_seconds": list(result.old_resize_times),
    }
    return metrics, series


def _run_figure2(scale: str, seed: int, num_cycles: int) -> Payload:
    result = figure2_series(_scenarios(scale, seed), num_cycles=num_cycles)
    metrics: dict[str, Any] = {
        "os_view_is_flat_after_warmup": bool(result.os_view_is_flat_after_warmup()),
        "jvm_view_oscillates": bool(result.jvm_view_oscillates()),
        "num_phases": len(result.phase_starts),
    }
    series = {
        "time_seconds": list(result.time_seconds),
        "os_memory_mb": list(result.os_memory_mb),
        "jvm_heap_used_mb": list(result.jvm_heap_used_mb),
        "phase_starts_seconds": list(result.phase_starts),
    }
    return metrics, series


# --------------------------------------------------------------------------
# adapters: ablations
# --------------------------------------------------------------------------


def _ablation_payload(points) -> Payload:
    metrics: dict[str, Any] = {}
    for point in points:
        metrics[f"{point.label}.mae_seconds"] = point.mae_seconds
        metrics[f"{point.label}.s_mae_seconds"] = point.s_mae_seconds
        metrics[f"{point.label}.post_mae_seconds"] = point.post_mae_seconds
    metrics["num_points"] = len(points)
    return metrics, {}


def _run_ablation_window(scale: str, seed: int) -> Payload:
    return _ablation_payload(run_window_sweep(_scenarios(scale, seed)))


def _run_ablation_derived(scale: str, seed: int) -> Payload:
    return _ablation_payload(run_derived_variable_ablation(_scenarios(scale, seed)))


def _run_ablation_smoothing(scale: str, seed: int) -> Payload:
    return _ablation_payload(run_smoothing_ablation(_scenarios(scale, seed)))


def _run_ablation_margin(scale: str, seed: int) -> Payload:
    return _ablation_payload(run_security_margin_sweep(_scenarios(scale, seed)))


# --------------------------------------------------------------------------
# adapter: the adaptive lifecycle
# --------------------------------------------------------------------------


def _run_lifecycle(
    scale: str,
    seed: int,
    model: str,
    challenger_model: str,
    drift_threshold_seconds: float,
    drift_persistence: int,
    training_window: int,
    gate_margin: float,
) -> Payload:
    config = replace(
        LifecycleConfig(),
        challenger_model=challenger_model,
        drift_threshold_seconds=drift_threshold_seconds,
        drift_persistence=drift_persistence,
        training_window=training_window,
        gate_margin=gate_margin,
    )
    result = run_lifecycle_experiment(_scenarios(scale, seed), config=config, model=model)
    metrics: dict[str, Any] = {
        "morph_time_seconds": result.morph_time_seconds,
        "crash_time_seconds": result.trace.crash_time_seconds,
        "crash_resource": result.trace.crash_resource,
        "static.mae_seconds": result.static_mae,
        "managed.mae_seconds": result.managed_mae,
        "static.post_morph_mae_seconds": result.static_post_morph_mae,
        "managed.post_morph_mae_seconds": result.managed_post_morph_mae,
        "post_morph_improvement_seconds": result.post_morph_improvement,
        "lifecycle_wins": bool(result.lifecycle_wins()),
        "generations": result.generations,
        "num_drifts": len(result.drift_times),
        "num_promotions": len(result.promotion_times),
        "num_rejections": len(result.rejection_times),
    }
    series = {
        "time_seconds": list(result.trace.times()),
        "true_ttf_seconds": list(result.trace.time_to_failure()),
        "static_predicted_ttf_seconds": list(result.static_predictions),
        "managed_predicted_ttf_seconds": list(result.managed_predictions),
        "drift_times_seconds": list(result.drift_times),
        "promotion_times_seconds": list(result.promotion_times),
        "rejection_times_seconds": list(result.rejection_times),
    }
    return metrics, series


# --------------------------------------------------------------------------
# adapter: the cluster comparison
# --------------------------------------------------------------------------


def _run_cluster(
    scale: str,
    seed: int,
    engine: str,
    kind: str,
    lifecycle: bool,
    horizon_seconds: float,
) -> Payload:
    scenario = replace(_cluster_scenario(scale, seed, kind), lifecycle=lifecycle)
    if horizon_seconds > 0.0:
        scenario = replace(scenario, horizon_seconds=horizon_seconds)
    result = run_cluster_experiment(scenario, engine=engine)
    metrics: dict[str, Any] = {
        "time_based_interval_seconds": result.time_based_interval_seconds,
        "training_instances": result.training_instances,
        "training_runs": len(result.training_crash_seconds),
        "rolling_wins": bool(result.rolling_wins()),
    }
    series: dict[str, list[float]] = {
        "training_crash_seconds": list(result.training_crash_seconds),
    }
    policies = {
        "no_rejuvenation": result.no_rejuvenation,
        "time_based": result.time_based,
        "rolling_predictive": result.rolling_predictive,
    }
    for policy, outcome in policies.items():
        # The per-policy scalars come straight from the outcome's canonical
        # metrics() view -- the same dict the fleet service publishes -- so
        # envelope keys and values can never drift from the API surface.
        for key, value in outcome.metrics().items():
            metrics[f"{policy}.{key}"] = value
        series[f"{policy}.per_node_availability"] = [
            node.availability for node in outcome.per_node
        ]
    return metrics, series


# --------------------------------------------------------------------------
# the registry itself
# --------------------------------------------------------------------------


def _spec(
    name: str,
    description: str,
    category: str,
    implementation: str,
    runner: Callable[..., Payload],
    extra: tuple[ParamSpec, ...] = (),
    seed: int = 2010,
    seed_description: str | None = None,
) -> ExperimentSpec:
    params = common_params(seed)
    if seed_description is not None:
        params = (params[0], replace(params[1], description=seed_description))
    return register(
        ExperimentSpec(
            name=name,
            description=description,
            category=category,
            params=params + extra,
            implementation=implementation,
            runner=runner,
        )
    )


_spec(
    "exp41",
    "Experiment 4.1: deterministic aging under a constant memory leak (Table 3)",
    "experiment",
    "repro.experiments.exp41.run_experiment_41",
    _run_exp41,
)
_spec(
    "exp42",
    "Experiment 4.2: dynamic, rate-changing aging (Figure 3)",
    "experiment",
    "repro.experiments.exp42.run_experiment_42",
    _run_exp42,
)
_spec(
    "exp43",
    "Experiment 4.3: aging hidden in a periodic pattern, expert feature selection (Figure 4, Table 4)",
    "experiment",
    "repro.experiments.exp43.run_experiment_43",
    _run_exp43,
)
_spec(
    "exp44",
    "Experiment 4.4: two simultaneous aging resources plus root-cause inspection (Figure 5)",
    "experiment",
    "repro.experiments.exp44.run_experiment_44",
    _run_exp44,
)
_spec(
    "figure1",
    "Figure 1: nonlinear memory consumption under a constant-rate leak",
    "figure",
    "repro.experiments.figures.figure1_series",
    _run_figure1,
)
_spec(
    "figure2",
    "Figure 2: OS-level versus JVM-level view of a periodic memory pattern",
    "figure",
    "repro.experiments.figures.figure2_series",
    _run_figure2,
    extra=(
        ParamSpec(
            name="num_cycles",
            type="int",
            default=5,
            description="how many normal/acquire/release cycles to simulate",
        ),
    ),
)
_spec(
    "ablation_window",
    "Ablation: M5P accuracy versus sliding-window length",
    "ablation",
    "repro.experiments.ablations.run_window_sweep",
    _run_ablation_window,
)
_spec(
    "ablation_derived",
    "Ablation: full Table 2 variable set versus raw metrics only",
    "ablation",
    "repro.experiments.ablations.run_derived_variable_ablation",
    _run_ablation_derived,
)
_spec(
    "ablation_smoothing",
    "Ablation: M5P with and without Quinlan's prediction smoothing",
    "ablation",
    "repro.experiments.ablations.run_smoothing_ablation",
    _run_ablation_smoothing,
)
_spec(
    "ablation_margin",
    "Ablation: S-MAE versus the security margin (10% in the paper)",
    "ablation",
    "repro.experiments.ablations.run_security_margin_sweep",
    _run_ablation_margin,
)
_spec(
    "lifecycle",
    "Adaptive lifecycle: drift detection and champion/challenger retraining on a morphing fault",
    "ablation",
    "repro.experiments.lifecycle.run_lifecycle_experiment",
    _run_lifecycle,
    extra=(
        ParamSpec(
            name="model",
            type="str",
            default="m5p",
            description="learner of the statically deployed champion",
            choices=("m5p", "linear", "tree"),
        ),
        ParamSpec(
            name="challenger_model",
            type="str",
            default="tree",
            description="learner retrained on live windows during drift episodes",
            choices=("m5p", "linear", "tree"),
        ),
        ParamSpec(
            name="drift_threshold_seconds",
            type="float",
            default=2000.0,
            description="Page-Hinkley alarm threshold (accumulated seconds of residual)",
        ),
        ParamSpec(
            name="drift_persistence",
            type="int",
            default=2,
            description="consecutive over-threshold marks required to confirm drift",
        ),
        ParamSpec(
            name="training_window",
            type="int",
            default=48,
            description="live-window size (marks) challengers are trained on",
        ),
        ParamSpec(
            name="gate_margin",
            type="float",
            default=0.9,
            description="promotion gate: challenger MAE must beat margin * champion MAE",
        ),
    ),
)
_spec(
    "cluster",
    "Fleet extension: rolling predictive rejuvenation versus both baselines",
    "cluster",
    "repro.experiments.cluster.run_cluster_experiment",
    _run_cluster,
    extra=(
        ParamSpec(
            name="engine",
            type="str",
            default="event",
            description=(
                "fleet settlement tier: exact event-driven, or the approximate numpy "
                "fluid tier for million-user / thousand-node fleets"
            ),
            choices=CLUSTER_ENGINES,
        ),
        ParamSpec(
            name="kind",
            type="str",
            default="memory",
            description="fleet aging scenario",
            choices=CLUSTER_SCENARIO_KINDS,
        ),
        ParamSpec(
            name="lifecycle",
            type="bool",
            default=False,
            description=(
                "manage the predictive policy's per-node monitors with the adaptive "
                "lifecycle (drift detection plus champion/challenger retraining)"
            ),
        ),
        ParamSpec(
            name="horizon_seconds",
            type="float",
            default=0.0,
            description=(
                "operate the fleet for this many seconds; 0 keeps the scenario's "
                "own horizon (2 h fast, 12 h paper-scale)"
            ),
        ),
    ),
    seed=7,
    seed_description=(
        "master seed of the fleet operation run (workload stream and node seeds); "
        "the predictor's historical training runs keep the scenario's fixed seeds"
    ),
)
