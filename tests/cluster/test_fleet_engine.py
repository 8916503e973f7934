"""The front end every engine tier shares (``repro.cluster.engine.FleetEngine``).

Reads never start an engine, a fleet with no elapsed time reports the same
availability on every tier, both tiers the service runs answer its
snapshot reads with the same keys, and a dropped engine is freed at once,
nodes and simulations included.
"""

import gc
import weakref

import pytest

from repro.cluster.coordinator import NoClusterRejuvenation
from repro.experiments.scenarios import ClusterScenario
from tests.cluster.oracle import build_cluster_engine

TIERS = ["event", "per_second", "fluid"]


def _engine(fleet_engine):
    return build_cluster_engine(
        ClusterScenario.fast(), NoClusterRejuvenation(), fleet_engine=fleet_engine
    )


@pytest.mark.parametrize("fleet_engine", TIERS)
def test_reads_do_not_start_a_fresh_engine(fleet_engine):
    engine = _engine(fleet_engine)
    engine.fleet_snapshot()
    engine.node_snapshots()
    outcome = engine.run(60.0)
    assert outcome == _engine(fleet_engine).run(60.0)


@pytest.mark.parametrize("fleet_engine", TIERS)
def test_finish_before_any_tick_reports_zero_availability(fleet_engine):
    engine = _engine(fleet_engine)
    snapshots = engine.node_snapshots()
    outcome = engine.finish()
    assert outcome.horizon_seconds == 0.0
    assert outcome.availability == 0.0
    assert [node.availability for node in outcome.per_node] == [0.0, 0.0, 0.0]
    assert [node["availability"] for node in snapshots] == [0.0, 0.0, 0.0]
    assert engine.fleet_snapshot()["availability"] == 0.0


def test_both_served_tiers_answer_reads_with_the_same_keys():
    engines = [_engine("event"), _engine("fluid")]
    for engine in engines:
        engine.step(600)
    event, fluid = engines
    assert set(event.fleet_snapshot()) == set(fluid.fleet_snapshot())
    assert [set(node) for node in event.node_snapshots()] == [
        set(node) for node in fluid.node_snapshots()
    ]


@pytest.mark.parametrize("fleet_engine", TIERS)
def test_a_dropped_engine_is_freed_without_a_cyclic_collection(fleet_engine):
    """Nothing an engine hands its nodes refers back to it, and nothing a node
    hands its settlement refers back to the node, so a finished engine, its
    browser population, its nodes and their simulations go as soon as the
    last reference does."""
    engine = _engine(fleet_engine)
    engine.mutate_leak_rates(memory_n=40)
    engine.step(60)
    engine.finish()
    dropped = {"engine": weakref.ref(engine)}
    if fleet_engine != "fluid":  # the exact tiers run one ClusterNode per server
        node = engine.nodes[0]
        dropped.update(node=weakref.ref(node), simulation=weakref.ref(node.simulation))
        del node
    gc.disable()
    try:
        del engine
        assert [name for name, ref in dropped.items() if ref() is not None] == []
    finally:
        gc.enable()
