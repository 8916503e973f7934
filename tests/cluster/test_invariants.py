"""Invariant/property harness for the event-driven engines.

Seeded random fleets -- size, workload, scenario kind, heterogeneity,
routing policy, restart cost model all drawn from a seeded generator -- are
run through the cluster engine with instrumented routing and coordination
wrappers, and checked against the invariants every correct fleet run must
satisfy:

* availability lies in [0, 1], fleet-wide and per node;
* every request a browser issued was either served or rejected
  (``served + rejected == offered``), and the per-node serve counts add up;
* requests are never routed to draining or restarting nodes;
* the rolling coordinator never drains below its capacity floor;
* the time accounting is conserved (capacity, outage and degraded seconds
  never exceed the horizon; per-node uptime plus downtime never exceeds it).

The single-server parity auditor at the bottom applies the same discipline
to stand-alone ``TestbedSimulation`` runs: at every monitoring mark, every
request the workload generator issued must be accounted for by the server
(issued == served) and by the browsers (completed + in-flight == issued),
under both the event-driven engine and the per-second reference.
"""

import random

import pytest

from repro.cluster.coordinator import (
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.node import NodeState
from repro.cluster.routing import AgingAwareRouting, RoundRobinRouting
from repro.experiments.scenarios import CLUSTER_SCENARIO_KINDS, ClusterScenario
from repro.testbed.config import TestbedConfig
from repro.testbed.engine import TestbedSimulation
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.monitoring.collector import MetricsCollector
from tests.testbed.oracle import per_second_engine


class RoutingAuditor(RoundRobinRouting):
    """Round-robin routing that asserts every candidate accepts traffic."""

    def __init__(self):
        super().__init__()
        self.routed_requests = 0

    def route(self, candidates):
        assert candidates, "the balancer must never offer an empty candidate list"
        for node in candidates:
            assert node.state is NodeState.ACTIVE, (
                f"node {node.node_id} offered for routing while {node.state.value}"
            )
        self.routed_requests += 1
        return super().route(candidates)


class FloorAuditor(RollingPredictiveRejuvenation):
    """Rolling coordination that asserts its own capacity floor on every decision."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.decisions = 0

    def decide(self, now_seconds, nodes):
        chosen = super().decide(now_seconds, nodes)
        if chosen:
            self.decisions += 1
            active_after = sum(1 for node in nodes if node.state is NodeState.ACTIVE) - len(chosen)
            assert active_after >= self.min_active_nodes(len(nodes)), (
                f"draining {len(chosen)} node(s) at t={now_seconds:.0f}s would break the floor"
            )
        return chosen


def check_outcome_invariants(engine, outcome):
    """The invariants every finished fleet run must satisfy."""
    assert 0.0 <= outcome.availability <= 1.0
    assert 0.0 <= outcome.request_success_rate <= 1.0
    offered = engine.workload.total_requests_issued
    assert outcome.served_requests + outcome.dropped_requests == offered
    assert outcome.served_requests == sum(node.requests_served for node in outcome.per_node)
    assert outcome.crashes == sum(node.crashes for node in outcome.per_node)
    assert outcome.rejuvenations == sum(node.rejuvenations for node in outcome.per_node)
    assert 0 <= outcome.min_active_nodes <= outcome.num_nodes
    assert outcome.capacity_node_seconds <= outcome.num_nodes * outcome.horizon_seconds + 1e-9
    assert outcome.full_outage_seconds + outcome.degraded_seconds <= outcome.horizon_seconds + 1e-9
    for node in outcome.per_node:
        assert 0.0 <= node.availability <= 1.0
        assert node.uptime_seconds + node.planned_downtime_seconds + node.unplanned_downtime_seconds \
            <= outcome.horizon_seconds + 1e-9


def build_random_fleet(seed):
    """Draw one random fleet configuration from a seeded generator."""
    rng = random.Random(seed)
    scenario = ClusterScenario.fast(kind=rng.choice(CLUSTER_SCENARIO_KINDS))
    num_nodes = rng.randint(2, 5)
    node_configs = None
    if rng.random() < 0.5:
        from dataclasses import replace

        node_configs = tuple(
            replace(scenario.config, heap_max_mb=rng.choice([112.0, 160.0, 224.0]))
            for _ in range(num_nodes)
        )
    routing = RoutingAuditor()
    engine = ClusterEngine(
        num_nodes=num_nodes,
        config=scenario.config,
        node_configs=node_configs,
        total_ebs=rng.randint(num_nodes, 150),
        injector_factory=scenario.injector_factory,
        routing_policy=routing,
        coordinator=(
            UncoordinatedTimeBasedRejuvenation(rng.uniform(600.0, 1500.0))
            if rng.random() < 0.5
            else NoClusterRejuvenation()
        ),
        drain_seconds=rng.choice([0.0, 15.0, 45.0]),
        rejuvenation_downtime_seconds=rng.choice([60.0, 120.0]),
        crash_downtime_seconds=rng.choice([300.0, 900.0]),
        seed=rng.randrange(2**20),
    )
    return engine, routing


@pytest.mark.parametrize("seed", range(6))
def test_random_fleet_invariants(seed):
    """Seeded random fleets uphold every engine invariant end to end."""
    engine, routing = build_random_fleet(seed)
    outcome = engine.run(max_seconds=2700.0)
    check_outcome_invariants(engine, outcome)
    assert routing.routed_requests >= outcome.served_requests


def test_capacity_floor_holds_under_predictive_rolling(fast_scenario, fitted_predictor):
    """The rolling coordinator never drains through its capacity floor."""
    coordinator = FloorAuditor(
        max_concurrent_restarts=fast_scenario.max_concurrent_restarts,
        min_active_fraction=fast_scenario.min_active_fraction,
    )
    engine = ClusterEngine(
        num_nodes=fast_scenario.num_nodes,
        config=fast_scenario.config,
        total_ebs=fast_scenario.total_ebs,
        injector_factory=fast_scenario.injector_factory,
        routing_policy=AgingAwareRouting(ttf_comfort_seconds=fast_scenario.ttf_comfort_seconds),
        coordinator=coordinator,
        predictor=fitted_predictor,
        alarm_threshold_seconds=fast_scenario.alarm_threshold_seconds,
        alarm_consecutive=fast_scenario.alarm_consecutive,
        drain_seconds=fast_scenario.drain_seconds,
        seed=fast_scenario.cluster_seed,
    )
    outcome = engine.run(max_seconds=3600.0)
    check_outcome_invariants(engine, outcome)
    assert coordinator.decisions >= 1, "the predictive coordinator never acted"
    assert outcome.min_active_nodes >= coordinator.min_active_nodes(fast_scenario.num_nodes) - outcome.crashes


class TestScenarioKindExperiments:
    """The three-strategy comparison upholds the invariants (and the headline
    claim) on every fleet scenario kind."""

    def test_memory_fleet(self, experiment_result):
        self._check(experiment_result)

    def test_threads_fleet(self, threads_experiment):
        self._check(threads_experiment)
        # The baseline really is dying of thread exhaustion, not memory.
        assert threads_experiment.no_rejuvenation.crashes >= 1

    def test_two_resource_fleet(self, two_resource_experiment):
        self._check(two_resource_experiment)
        # Both resources must actually be exhausting somewhere: the
        # no-rejuvenation baseline sees more crashes than the memory-only or
        # thread-only fast fleets of the same horizon would on their own.
        assert two_resource_experiment.no_rejuvenation.crashes >= 8

    @staticmethod
    def _check(result):
        for outcome in result.outcomes().values():
            assert 0.0 <= outcome.availability <= 1.0
            assert outcome.served_requests == sum(n.requests_served for n in outcome.per_node)
            assert 0 <= outcome.min_active_nodes <= outcome.num_nodes
        assert result.rolling_wins(), "\n".join(result.summary_lines())
        rolling = result.rolling_predictive
        assert rolling.full_outage_seconds == 0.0
        assert rolling.crashes == 0


class TestStreamDiscipline:
    """Seeded RNG stream discipline of the exact engines.

    The exact tiers' reproducibility contract is that *ambient* choices --
    enabling telemetry, picking a different engine tier for another run,
    sweep worker counts -- never perturb their seeded random streams.  Each
    test interleaves one such choice with a reference exact run and demands
    bit-identical outcomes.
    """

    @staticmethod
    def _exact_outcome(seed=31):
        engine = ClusterEngine(
            num_nodes=3,
            config=ClusterScenario.fast().config,
            total_ebs=90,
            injector_factory=ClusterScenario.fast().injector_factory,
            coordinator=NoClusterRejuvenation(),
            seed=seed,
        )
        return engine.run(max_seconds=2400.0)

    def test_telemetry_never_perturbs_exact_streams(self):
        """An active hub observes the run; it must not participate in it."""
        from repro.telemetry import Telemetry, activate

        plain = self._exact_outcome()
        with activate(Telemetry()):
            traced = self._exact_outcome()
        assert traced == plain

    def test_fluid_runs_leave_exact_streams_untouched(self):
        """A fluid-tier run between two exact runs changes neither the exact
        outcome nor any ambient random state the exact engines could read."""
        import numpy as np

        from repro.cluster.fluid import FluidClusterEngine

        before = self._exact_outcome()
        random.seed(12345)
        python_state = random.getstate()
        numpy_state = np.random.get_state()

        scenario = ClusterScenario.fast()
        FluidClusterEngine(
            num_nodes=3,
            config=scenario.config,
            total_ebs=90,
            injector_factory=scenario.injector_factory,
            seed=31,
        ).run(max_seconds=2400.0)

        assert random.getstate() == python_state, "fluid run consumed the global python RNG"
        after_numpy = np.random.get_state()
        assert after_numpy[0] == numpy_state[0]
        assert np.array_equal(after_numpy[1], numpy_state[1]), (
            "fluid run consumed the global numpy RNG"
        )
        assert self._exact_outcome() == before

    def test_engine_tier_switch_never_perturbs_exact_streams(self):
        """Running the per-second reference in between leaves the
        event-driven engine's streams untouched (and vice versa)."""
        from tests.cluster.oracle import PerSecondClusterEngine

        before = self._exact_outcome()
        scenario = ClusterScenario.fast()
        PerSecondClusterEngine(
            num_nodes=2,
            config=scenario.config,
            total_ebs=40,
            injector_factory=scenario.injector_factory,
            seed=5,
        ).run(max_seconds=900.0)
        assert self._exact_outcome() == before

    def test_worker_count_never_perturbs_results(self, tmp_path):
        """Sweep orchestration: the same point through 1 and 2 workers
        serializes byte-identically (process dispatch is outside the seeded
        streams)."""
        from repro.api.executor import run_points
        from repro.api.store import ResultStore
        from repro.api.sweep import expand_sweep

        points = expand_sweep("figure2", {"scale": "small", "seed": "11", "num_cycles": "2"})
        sequential = run_points(
            points, ResultStore(tmp_path / "w1"), workers=1, use_cache=False
        )
        parallel = run_points(
            points, ResultStore(tmp_path / "w2"), workers=2, use_cache=False
        )
        assert len(sequential) == len(parallel) == 1
        assert sequential[0].result.to_json() == parallel[0].result.to_json()


class ConservationCollector(MetricsCollector):
    """A metrics collector that audits request conservation at every mark.

    Whichever engine drives the run, ``collect`` is called exactly once per
    monitoring mark, after the mark tick's requests were served -- the same
    observation point for both engines.  At that point every request the
    workload generator issued must have reached the server (single-server
    runs route nothing and drop nothing), and every browser must be either
    done with its request or still waiting out the response:

    * ``issued == served`` (the server's lifetime request counter);
    * ``completed + in_flight == issued`` (the per-second reference keeps
      browsers waiting across ticks; the event engine completes them eagerly
      and keeps zero in flight -- both satisfy the balance).
    """

    def __init__(self, interval_seconds, simulation):
        super().__init__(interval_seconds)
        self._simulation = simulation
        self.marks_audited = 0

    def collect(self, time_seconds, server, operating_system, database, workload_ebs):
        workload = self._simulation.workload
        issued = workload.total_requests_issued
        completed = workload.total_requests_completed
        in_flight = sum(1 for browser in workload.browser_population() if browser.is_waiting)
        assert issued == server.total_requests, (
            f"t={time_seconds:.0f}s: workload issued {issued} requests "
            f"but the server served {server.total_requests}"
        )
        assert completed + in_flight == issued, (
            f"t={time_seconds:.0f}s: {completed} completed + {in_flight} in flight "
            f"!= {issued} issued"
        )
        self.marks_audited += 1
        return super().collect(time_seconds, server, operating_system, database, workload_ebs)


@pytest.mark.parametrize("engine", ["event", "per_second"])
@pytest.mark.parametrize("inject", [False, True])
def test_single_server_request_conservation(engine, inject, per_second_engine):
    """The single-server engine and its per-second reference conserve
    requests at every mark."""
    config = TestbedConfig(
        heap_max_mb=160.0,
        young_capacity_mb=16.0,
        old_initial_mb=48.0,
        old_resize_step_mb=32.0,
        perm_mb=16.0,
        max_threads=96,
        base_worker_threads=16,
    )
    injectors = [MemoryLeakInjector(n=5, seed=77)] if inject else []
    simulation = TestbedSimulation(config=config, workload_ebs=40, injectors=injectors, seed=77)
    auditor = ConservationCollector(config.monitoring_interval_s, simulation)
    simulation.collector = auditor
    if engine == "per_second":
        with per_second_engine():
            trace = simulation.run(max_seconds=2400.0)
    else:
        trace = simulation.run(max_seconds=2400.0)
    assert auditor.marks_audited == len(trace.samples)
    assert auditor.marks_audited >= 10
    assert trace.crashed == inject
