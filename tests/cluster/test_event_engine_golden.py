"""Golden-trace regression: event-driven engine == per-second engine.

The event-driven ``ClusterEngine`` promises *bit-for-bit* identical seeded
``ClusterOutcome`` aggregates to the tick-everything
``PerSecondClusterEngine`` it replaced, kept in ``tests/cluster/oracle.py``.  These tests pin that
promise across every scenario kind, every routing policy, both lifecycle
paths (crash recovery and planned drain/restart) and heterogeneous fleets --
the guard rail that lets the batched fast-forward machinery evolve safely.

``ClusterOutcome`` equality is dataclass equality over every aggregate
(availability inputs, outage and degraded seconds, request counts, per-node
uptime/downtime/crash/rejuvenation/request accounting), with no tolerance.
"""

import dataclasses

import pytest

from repro.cluster.coordinator import (
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.engine import ClusterEngine
from repro.cluster.routing import AgingAwareRouting, LeastConnectionsRouting
from repro.experiments.cluster import engine_kwargs
from repro.experiments.scenarios import CLUSTER_SCENARIO_KINDS, ClusterScenario
from tests.cluster.oracle import PerSecondClusterEngine


def component_counters(engine):
    """Every component counter of each node's live incarnation (``None`` for
    a node that is down), and the fleet browsers' summed ``requests_issued``.

    ``requests_completed`` is left out: the per-second loop completes a
    response a tick after the event engine does.
    """
    nodes = []
    for node in engine.nodes:
        simulation = node.simulation
        if simulation is None:
            nodes.append(None)
            continue
        server = simulation.server
        collector = simulation.heap.collector
        nodes.append(
            {
                "total_requests": server.total_requests,
                "queued_since_sample": server.queued_since_sample,
                "response_time_since_sample": server.response_time_since_sample.hex(),
                "total_queries": simulation.database.total_queries,
                "invocations": [servlet.invocations for servlet in server.servlets],
                "peak_workers": simulation.thread_pool.worker_threads,
                "gc": (collector.minor_collections, collector.full_collections),
            }
        )
    return nodes, engine.workload.total_requests_issued


def assert_samples_identical(reference_engine, event_engine):
    """Every monitoring sample of every incarnation must match bit-for-bit.

    ``ClusterOutcome`` equality covers the aggregates; this covers the raw
    telemetry the predictor would consume, so a divergence that happens not
    to move the aggregates (e.g. a double-applied load-average step) cannot
    hide.  The live incarnations' component counters must match too, so a
    serving path that drops a counter no sample reads cannot hide either.
    """
    for reference_node, event_node in zip(reference_engine.nodes, event_engine.nodes):
        assert len(reference_node.incarnations) == len(event_node.incarnations)
        for reference_trace, event_trace in zip(reference_node.incarnations, event_node.incarnations):
            assert reference_trace.samples == event_trace.samples
    assert component_counters(reference_engine) == component_counters(event_engine)


def run_both(scenario, horizon_seconds, routing_factory=None, coordinator_factory=None, predictor=None):
    """Run the same seeded fleet through both engines and return the outcomes.

    Also asserts that the two engines' per-node monitoring samples are
    identical, on top of the outcome comparison the callers make.
    """
    outcomes = []
    engines = []
    for engine_class in (PerSecondClusterEngine, ClusterEngine):
        engine = engine_class(
            routing_policy=routing_factory() if routing_factory is not None else None,
            coordinator=coordinator_factory() if coordinator_factory is not None else None,
            predictor=predictor,
            **engine_kwargs(scenario),
        )
        outcomes.append(engine.run(max_seconds=horizon_seconds))
        engines.append(engine)
    assert_samples_identical(engines[0], engines[1])
    return outcomes


def whole_and_fractional(scenario):
    """The scenario, then the scenario with a drain window and downtimes that
    are not whole seconds, so every lifecycle countdown ends on a fractional
    remainder the engines' one-step countdowns must land on exactly."""
    return (
        scenario,
        dataclasses.replace(
            scenario,
            drain_seconds=15.5,
            rejuvenation_downtime_seconds=120.25,
            crash_downtime_seconds=900.75,
        ),
    )


@pytest.mark.parametrize("kind", CLUSTER_SCENARIO_KINDS)
def test_event_engine_matches_per_second_engine(kind):
    """Crash/recover cycles under every scenario kind reproduce exactly."""
    scenario = ClusterScenario.fast(kind=kind)
    reference, event_driven = run_both(scenario, horizon_seconds=3600.0)
    assert reference == event_driven
    assert reference.crashes >= 1  # the comparison exercised crash recovery


def test_event_engine_matches_with_time_based_coordination():
    """Uptime crossings (drain, planned restart, rejoin) reproduce exactly."""
    for scenario in whole_and_fractional(ClusterScenario.fast()):
        reference, event_driven = run_both(
            scenario,
            horizon_seconds=3600.0,
            coordinator_factory=lambda: UncoordinatedTimeBasedRejuvenation(900.0),
        )
        assert reference == event_driven
        assert reference.rejuvenations >= 1  # planned restarts were exercised


def test_event_engine_matches_with_least_connections_routing():
    """The per-tick-state-reading policy forces (exact) full synchronisation."""
    scenario = ClusterScenario.fast()
    reference, event_driven = run_both(
        scenario,
        horizon_seconds=2400.0,
        routing_factory=LeastConnectionsRouting,
    )
    assert reference == event_driven


def test_event_engine_matches_heterogeneous_two_resource_fleet():
    """Mixed heap sizes under both injectors reproduce exactly."""
    scenario = ClusterScenario.fast_heterogeneous(kind="two_resource")
    reference, event_driven = run_both(scenario, horizon_seconds=3600.0)
    assert reference == event_driven
    assert reference.crashes >= 1


def test_event_engine_matches_predictive_rolling_fleet(fast_scenario, fitted_predictor):
    """The full headline configuration -- M5P forecasts streamed through the
    per-node monitors, aging-aware routing and the rolling coordinator --
    reproduces bit-for-bit, including every monitoring mark and drain."""
    for scenario in whole_and_fractional(fast_scenario):
        reference, event_driven = run_both(
            scenario,
            horizon_seconds=3600.0,
            routing_factory=lambda: AgingAwareRouting(
                ttf_comfort_seconds=scenario.ttf_comfort_seconds
            ),
            coordinator_factory=lambda: RollingPredictiveRejuvenation(
                max_concurrent_restarts=scenario.max_concurrent_restarts,
                min_active_fraction=scenario.min_active_fraction,
            ),
            predictor=fitted_predictor,
        )
        assert reference == event_driven
        assert reference.rejuvenations >= 1  # predictive drains were exercised


def test_no_rejuvenation_baseline_still_runs_to_crash():
    """The baseline coordinator never drains under either engine."""
    for scenario in whole_and_fractional(ClusterScenario.fast()):
        reference, event_driven = run_both(
            scenario, horizon_seconds=2400.0, coordinator_factory=NoClusterRejuvenation
        )
        assert reference == event_driven
        assert reference.rejuvenations == 0
