"""Mutation vocabulary and boundary-mutation determinism across the tiers.

The service's replay guarantee rests on two engine-level facts pinned here:
a tick-stamped command log fully determines the outcome whatever step
chunking delivered it, and the exact tier agrees bit-for-bit (outcome and
sim-channel digest) with the per-second reference loop of
``tests/cluster/oracle.py`` on the *same* mutated run.
"""

import pytest

from repro.cluster.coordinator import NoClusterRejuvenation
from repro.experiments.scenarios import ClusterScenario
from repro.service.mutations import MutationError, apply_mutation, parse_mutation
from repro.telemetry import Telemetry, activate
from tests.cluster.oracle import build_cluster_engine

HORIZON_TICKS = 3600

#: A representative command log: spike the load, kill a node, slow the leak
#: fleet-wide, then trigger an operator rejuvenation of another node.
COMMANDS = (
    (600, "load", {"total_ebs": 180}),
    (900, "kill", {"node": 1, "reason": "chaos drill"}),
    (1500, "leak_rate", {"memory_n": 40}),
    (2100, "rejuvenate", {"node": 0}),
)


def _run_with_commands(fleet_engine, boundaries):
    """Run the fast fleet, applying COMMANDS at their ticks, stepping by
    whatever boundary schedule ``boundaries`` dictates between them."""
    telemetry = Telemetry()
    scenario = ClusterScenario.fast()
    with activate(telemetry):
        engine = build_cluster_engine(
            scenario, NoClusterRejuvenation(), fleet_engine=fleet_engine
        )
        pending = list(COMMANDS)
        for target in boundaries:
            engine.step(target - engine.current_tick)
            while pending and pending[0][0] == engine.current_tick:
                _, kind, params = pending.pop(0)
                apply_mutation(engine, kind, params)
        assert not pending
        assert engine.current_tick == HORIZON_TICKS
        outcome = engine.finish()
    return outcome.to_json(), telemetry.digest()


def _boundary_schedules():
    musts = [tick for tick, _, _ in COMMANDS] + [HORIZON_TICKS]
    coarse = musts
    fine = sorted(set(musts) | set(range(0, HORIZON_TICKS + 1, 150)) - {0})
    lopsided = sorted(set(musts) | {599, 601, 899, 2999})
    return [coarse, fine, lopsided]


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
def test_command_log_outcome_is_chunking_invariant(fleet_engine):
    results = [
        _run_with_commands(fleet_engine, schedule) for schedule in _boundary_schedules()
    ]
    baseline_json, baseline_digest = results[0]
    for outcome_json, digest in results[1:]:
        assert outcome_json == baseline_json
        assert digest == baseline_digest


def test_exact_tiers_agree_on_mutated_runs():
    """Event engine and per-second reference: same mutated run, same bytes, same digest."""
    event_json, event_digest = _run_with_commands("event", _boundary_schedules()[1])
    ps_json, ps_digest = _run_with_commands("per_second", _boundary_schedules()[0])
    assert event_json == ps_json
    assert event_digest == ps_digest


def test_fluid_mutated_runs_are_repeatable():
    """The fluid tier's digest is tier-specific but stable across repeats."""
    first = _run_with_commands("fluid", _boundary_schedules()[0])
    second = _run_with_commands("fluid", _boundary_schedules()[2])
    assert first == second


def test_mutations_change_the_outcome():
    scenario = ClusterScenario.fast()
    baseline = build_cluster_engine(scenario, NoClusterRejuvenation()).run(3600.0)
    mutated_json, _ = _run_with_commands("event", _boundary_schedules()[0])
    assert baseline.to_json() != mutated_json


# ------------------------------------------------------------------ parsing


def test_parse_rejects_unknown_kind():
    with pytest.raises(MutationError):
        parse_mutation({"kind": "explode"})


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "load"},
        {"kind": "load", "total_ebs": 0},
        {"kind": "load", "total_ebs": "many"},
        {"kind": "load", "total_ebs": True},
        {"kind": "kill"},
        {"kind": "kill", "node": -1},
        {"kind": "kill", "node": 0, "reason": 7},
        {"kind": "rejuvenate"},
        {"kind": "leak_rate", "node": 0},
        {"kind": "leak_rate", "thread_t": 0},
    ],
)
def test_parse_rejects_malformed_payloads(payload):
    with pytest.raises(MutationError):
        parse_mutation(payload)


def test_parse_canonicalizes_leak_rate():
    kind, params = parse_mutation({"kind": "leak_rate", "node": 2, "memory_n": 0})
    assert kind == "leak_rate"
    assert params == {"node": 2, "memory_n": 0}


# ------------------------------------------------------- engine-side errors


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
def test_kill_requires_a_live_node(fleet_engine):
    engine = build_cluster_engine(
        ClusterScenario.fast(), NoClusterRejuvenation(), fleet_engine=fleet_engine
    )
    engine.step(60)
    apply_mutation(engine, "kill", {"node": 0})
    with pytest.raises(MutationError):
        apply_mutation(engine, "kill", {"node": 0})


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
def test_rejuvenate_requires_an_accepting_node(fleet_engine):
    engine = build_cluster_engine(
        ClusterScenario.fast(), NoClusterRejuvenation(), fleet_engine=fleet_engine
    )
    engine.step(60)
    apply_mutation(engine, "rejuvenate", {"node": 2})
    with pytest.raises(MutationError):
        apply_mutation(engine, "rejuvenate", {"node": 2})


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
def test_mutations_rejected_after_finish(fleet_engine):
    engine = build_cluster_engine(
        ClusterScenario.fast(), NoClusterRejuvenation(), fleet_engine=fleet_engine
    )
    engine.step(10)
    engine.finish()
    with pytest.raises(MutationError, match="already finished"):
        apply_mutation(engine, "load", {"total_ebs": 50})


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
@pytest.mark.parametrize(
    "kind, params",
    [("kill", {}), ("rejuvenate", {}), ("leak_rate", {"memory_n": 40})],
)
def test_out_of_range_node_refused_alike(fleet_engine, kind, params):
    scenario = ClusterScenario.fast()
    engine = build_cluster_engine(scenario, NoClusterRejuvenation(), fleet_engine=fleet_engine)
    engine.step(60)
    with pytest.raises(MutationError) as refused:
        apply_mutation(engine, kind, {"node": scenario.num_nodes, **params})
    assert str(refused.value) == f"node_id must be within [0, {scenario.num_nodes - 1}]"
    assert engine.current_tick == 60
    assert engine.step(1) == 61
