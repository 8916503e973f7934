"""The cluster experiment: coordinated rolling rejuvenation at fleet scale.

The paper's Section 6 ambition -- predict the crash, rejuvenate before it --
is evaluated here in the setting real deployments face: a load-balanced
fleet of aging servers whose restarts must be coordinated so the service
never loses all of its capacity.  The experiment operates the same seeded
fleet under three strategies:

1. **no rejuvenation** -- every node runs to its crash (the paper's
   baseline, now paying fleet-level capacity loss and full outages when
   crashes coincide);
2. **uncoordinated time-based restarts** -- each node independently applies
   the fixed-uptime rule with a two-fold safety factor; nothing staggers the
   nodes, so the implicitly synchronised fleet restarts together;
3. **coordinated rolling predictive rejuvenation** -- each node streams its
   marks through the fitted M5P predictor, the aging-aware balancer sheds
   traffic away from nodes forecast to crash, and the rolling coordinator
   drains and restarts alarmed nodes one at a time under a minimum-capacity
   floor.

The headline claim (asserted by the unit tests and printed by
``examples/cluster_rolling_rejuvenation.py``): the coordinated predictive
fleet achieves strictly higher capacity-weighted availability than both
baselines **and zero full-outage seconds**.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.coordinator import (
    ClusterRejuvenationCoordinator,
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.fluid import FluidClusterEngine
from repro.cluster.routing import AgingAwareRouting, RoutingPolicy
from repro.cluster.status import ClusterOutcome
from repro.cluster.node import MonitorFactory
from repro.core.predictor import AgingPredictor
from repro.experiments.runner import run_memory_leak_trace, run_thread_leak_trace, run_two_resource_trace
from repro.experiments.scenarios import ClusterScenario
from repro.lifecycle import LifecycleConfig, ManagedOnlineMonitor
from repro.testbed.monitoring.collector import Trace

__all__ = [
    "FLEET_ENGINES",
    "ClusterExperimentResult",
    "generate_cluster_training_traces",
    "train_cluster_predictor",
    "derive_time_based_interval",
    "lifecycle_monitor_factory",
    "engine_kwargs",
    "build_cluster_engine",
    "run_cluster_policy",
    "run_cluster_experiment",
]

#: The fleet settlement tiers: the exact event-driven engine and the
#: approximate numpy fluid tier.
FLEET_ENGINES = ("event", "fluid")


@dataclass
class ClusterExperimentResult:
    """Outcomes of the three-strategy fleet comparison."""

    no_rejuvenation: ClusterOutcome
    time_based: ClusterOutcome
    rolling_predictive: ClusterOutcome
    time_based_interval_seconds: float
    training_crash_seconds: tuple[float, ...]
    training_instances: int

    def outcomes(self) -> dict[str, ClusterOutcome]:
        return {
            "no rejuvenation": self.no_rejuvenation,
            "uncoordinated time-based": self.time_based,
            "rolling predictive": self.rolling_predictive,
        }

    def rolling_wins(self) -> bool:
        """The acceptance claim: strictly best availability, zero outage."""
        rolling = self.rolling_predictive
        return (
            rolling.availability > self.no_rejuvenation.availability
            and rolling.availability > self.time_based.availability
            and rolling.full_outage_seconds == 0.0
        )

    def summary_lines(self) -> list[str]:
        return [outcome.summary() for outcome in self.outcomes().values()]


def generate_cluster_training_traces(scenario: ClusterScenario) -> list[Trace]:
    """Single-server failure runs bracketing the per-node fleet workloads.

    The training mix follows the scenario kind: memory fleets train on
    memory-leak crashes, thread fleets on thread-exhaustion crashes, and
    two-resource fleets on memory-only, thread-only *and* combined runs --
    mirroring Experiment 4.4, and necessary for the same reason: a model
    that has only ever seen one resource elevated at a time wildly
    underestimates the time to failure when both climb together, and an
    underestimating monitor rejuvenates the fleet into the ground.
    Heterogeneous fleets repeat the runs for every distinct node
    configuration.
    """
    traces: list[Trace] = []
    for config in scenario.training_configs():
        for workload in scenario.training_workloads:
            for seed in scenario.training_seeds:
                if scenario.kind != "threads":
                    traces.append(
                        run_memory_leak_trace(
                            config,
                            workload,
                            n=scenario.memory_n,
                            seed=seed,
                            max_seconds=scenario.training_max_seconds,
                        )
                    )
                if scenario.kind != "memory":
                    traces.append(
                        run_thread_leak_trace(
                            config,
                            workload,
                            m=scenario.thread_m,
                            t=scenario.thread_t,
                            seed=seed,
                            max_seconds=scenario.training_max_seconds,
                        )
                    )
                if scenario.kind == "two_resource":
                    traces.append(
                        run_two_resource_trace(
                            config,
                            workload,
                            phases=[(0.0, scenario.memory_n, scenario.thread_m, scenario.thread_t)],
                            seed=seed,
                            max_seconds=scenario.training_max_seconds,
                        )
                    )
    crashless = [trace for trace in traces if not trace.crashed]
    if crashless:
        raise RuntimeError(
            f"{len(crashless)} training run(s) did not crash within "
            f"{scenario.training_max_seconds:.0f}s; increase the injection rates or the time limit"
        )
    return traces


def train_cluster_predictor(
    scenario: ClusterScenario, traces: list[Trace] | None = None
) -> AgingPredictor:
    """Fit the paper's M5P predictor on the scenario's training runs."""
    training = traces if traces is not None else generate_cluster_training_traces(scenario)
    return AgingPredictor(model="m5p").fit(training)


def derive_time_based_interval(scenario: ClusterScenario, traces: list[Trace]) -> float:
    """Restart interval of the time-based baseline.

    When the scenario does not pin one, apply the rule an operator without a
    predictor would: restart at half the smallest time to crash ever
    observed -- a two-fold safety factor against the variance of the aging
    process.
    """
    if scenario.time_based_interval_seconds is not None:
        return scenario.time_based_interval_seconds
    crash_times = [float(trace.crash_time_seconds) for trace in traces if trace.crash_time_seconds]
    if not crash_times:
        raise ValueError("cannot derive a restart interval without crashed training runs")
    return min(crash_times) / 2.0


def lifecycle_monitor_factory(
    scenario: ClusterScenario, predictor: AgingPredictor
) -> MonitorFactory:
    """Per-node builder of lifecycle-managed monitors for a fleet.

    Every node gets its *own* champion -- a fresh fit of the predictor's
    model on the predictor's training dataset (deterministic, so before any
    promotion the per-node champions predict bit-identically to the shared
    one) -- because promotions are node-local: one node's drift must not
    swap the model a healthy peer is relying on.  Heterogeneous fleets pick
    each node's resource capacities from its own testbed configuration.
    """
    training_dataset = predictor.training_dataset
    model = predictor.model_name

    def factory(node_id: int) -> ManagedOnlineMonitor:
        node_config = (
            scenario.node_configs[node_id] if scenario.node_configs is not None else scenario.config
        )
        return ManagedOnlineMonitor(
            champion=AgingPredictor(model=model).fit_dataset(training_dataset),
            config=LifecycleConfig().for_testbed(node_config),
            alarm_threshold_seconds=scenario.alarm_threshold_seconds,
            alarm_consecutive=scenario.alarm_consecutive,
            run=f"n{node_id}",
        )

    return factory


def engine_kwargs(scenario: ClusterScenario) -> dict:
    """The engine-constructor keywords a :class:`ClusterScenario` fixes.

    Every engine tier takes them; a caller adds the routing policy,
    coordinator and predictor (or monitor factory) of the policy it runs.
    """
    return {
        "num_nodes": scenario.num_nodes,
        "config": scenario.config,
        "node_configs": scenario.node_configs,
        "total_ebs": scenario.total_ebs,
        "injector_factory": scenario.injector_factory,
        "alarm_threshold_seconds": scenario.alarm_threshold_seconds,
        "alarm_consecutive": scenario.alarm_consecutive,
        "drain_seconds": scenario.drain_seconds,
        "rejuvenation_downtime_seconds": scenario.rejuvenation_downtime_seconds,
        "crash_downtime_seconds": scenario.crash_downtime_seconds,
        "seed": scenario.cluster_seed,
    }


def build_cluster_engine(
    scenario: ClusterScenario,
    coordinator: ClusterRejuvenationCoordinator,
    routing_policy: RoutingPolicy | None = None,
    predictor: AgingPredictor | None = None,
    monitor_factory: MonitorFactory | None = None,
    fleet_engine: str = "event",
):
    """Construct (but do not run) the cluster engine of one fleet policy.

    ``fleet_engine`` selects the cluster engine tier (one of
    :data:`FLEET_ENGINES`): ``"event"`` (exact, default) or ``"fluid"``
    (approximate numpy mean-field tier for wide fleets).  The fleet service
    drives the returned engine incrementally through ``step``/``finish``;
    :func:`run_cluster_policy` runs it to the scenario horizon in one batch.
    """
    if fleet_engine not in FLEET_ENGINES:
        raise ValueError(
            f"unknown fleet engine {fleet_engine!r}; use one of {', '.join(FLEET_ENGINES)}"
        )
    engine_cls = ClusterEngine if fleet_engine == "event" else FluidClusterEngine
    return engine_cls(
        routing_policy=routing_policy,
        coordinator=coordinator,
        predictor=predictor,
        monitor_factory=monitor_factory,
        **engine_kwargs(scenario),
    )


def run_cluster_policy(
    scenario: ClusterScenario,
    coordinator: ClusterRejuvenationCoordinator,
    routing_policy: RoutingPolicy | None = None,
    predictor: AgingPredictor | None = None,
    monitor_factory: MonitorFactory | None = None,
    fleet_engine: str = "event",
) -> ClusterOutcome:
    """Operate one fleet configuration over the scenario horizon.

    See :func:`build_cluster_engine` for the ``fleet_engine`` tiers.
    """
    engine = build_cluster_engine(
        scenario,
        coordinator,
        routing_policy=routing_policy,
        predictor=predictor,
        monitor_factory=monitor_factory,
        fleet_engine=fleet_engine,
    )
    return engine.run(max_seconds=scenario.horizon_seconds)


def run_cluster_experiment(
    scenario: ClusterScenario | None = None,
    training: list[Trace] | None = None,
    predictor: AgingPredictor | None = None,
    engine: str = "event",
) -> ClusterExperimentResult:
    """Regenerate the three-strategy cluster comparison.

    Prefer the unified entry point ``repro.api.run("cluster", ...)``; this
    function remains as the underlying driver.  ``training`` and
    ``predictor`` may be supplied to reuse already computed runs (the tests
    share them across fixtures); both are regenerated from the scenario when
    omitted.

    ``engine`` selects the fleet tier (one of :data:`FLEET_ENGINES`).
    ``"event"`` runs the three fleets on the exact event-driven
    ``ClusterEngine``; ``"fluid"`` runs them on the approximate numpy
    :class:`~repro.cluster.fluid.FluidClusterEngine`, whose outcomes match
    the exact aggregates within the validation bounds but are not
    bit-identical to them.  The training runs are single-server runs on the
    event-driven engine either way.
    """
    if engine not in FLEET_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; use one of {', '.join(FLEET_ENGINES)}")
    active = scenario if scenario is not None else ClusterScenario.paper_scale()
    if active.lifecycle and engine == "fluid":
        raise ValueError(
            "lifecycle-managed monitors are not supported by the fluid tier; "
            "use engine='event' with lifecycle=true"
        )

    if training is None:
        training = generate_cluster_training_traces(active)
    if predictor is None:
        predictor = train_cluster_predictor(active, training)
    interval = derive_time_based_interval(active, training)

    no_rejuvenation = run_cluster_policy(active, NoClusterRejuvenation(), fleet_engine=engine)
    time_based = run_cluster_policy(
        active, UncoordinatedTimeBasedRejuvenation(interval), fleet_engine=engine
    )
    # scenario.lifecycle swaps the predictive policy's per-incarnation
    # monitors for node-local lifecycle managers; the stationary scenarios
    # never fire the drift test, so outcomes must not change (pinned by the
    # cluster lifecycle tests).
    rolling = run_cluster_policy(
        active,
        RollingPredictiveRejuvenation(
            max_concurrent_restarts=active.max_concurrent_restarts,
            min_active_fraction=active.min_active_fraction,
        ),
        routing_policy=AgingAwareRouting(ttf_comfort_seconds=active.ttf_comfort_seconds),
        predictor=None if active.lifecycle else predictor,
        monitor_factory=lifecycle_monitor_factory(active, predictor) if active.lifecycle else None,
        fleet_engine=engine,
    )
    return ClusterExperimentResult(
        no_rejuvenation=no_rejuvenation,
        time_based=time_based,
        rolling_predictive=rolling,
        time_based_interval_seconds=interval,
        training_crash_seconds=tuple(
            float(trace.crash_time_seconds) for trace in training if trace.crash_time_seconds
        ),
        training_instances=predictor.num_training_instances,
    )
