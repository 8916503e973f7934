"""Golden parity: ``run(horizon)`` == any ``step`` chunking + ``finish``.

The fleet service exists because the engines learned to pause at tick
boundaries; these tests pin the refactor's core guarantee for both tiers,
the per-second reference loop and every scenario kind -- the incremental
surface is *bit-for-bit* the batch path, outcome and telemetry digest
alike.  If this breaks, every recorded
session replay (and every historical batch result) silently changes.
"""

import pytest

from repro.cluster.coordinator import (
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.routing import AgingAwareRouting
from repro.experiments.scenarios import ClusterScenario
from repro.telemetry import Telemetry, activate
from repro.testbed.timeline import first_tick_at_or_after
from tests.cluster.oracle import build_cluster_engine

HORIZON_SECONDS = 3600.0

#: Uneven chunk sizes exercising single ticks, odd strides and one big tail.
CHUNKS = (1, 7, 193, 600, 2799)


def _chunks_to(total_ticks: int):
    covered = 0
    for chunk in CHUNKS:
        take = min(chunk, total_ticks - covered)
        if take > 0:
            covered += take
            yield take
    if covered < total_ticks:
        yield total_ticks - covered


def _policy(name: str, predictor):
    if name == "none":
        return {"coordinator": NoClusterRejuvenation()}
    if name == "time_based":
        return {"coordinator": UncoordinatedTimeBasedRejuvenation(1800.0)}
    return {
        "coordinator": RollingPredictiveRejuvenation(
            max_concurrent_restarts=1, min_active_fraction=0.5
        ),
        "routing_policy": AgingAwareRouting(ttf_comfort_seconds=900.0),
        "predictor": predictor,
    }


def _run_batch(scenario, fleet_engine, policy, predictor):
    telemetry = Telemetry()
    with activate(telemetry):
        engine = build_cluster_engine(
            scenario, fleet_engine=fleet_engine, **_policy(policy, predictor)
        )
        outcome = engine.run(HORIZON_SECONDS)
    return outcome, telemetry.digest()


def _run_stepped(scenario, fleet_engine, policy, predictor):
    telemetry = Telemetry()
    total = first_tick_at_or_after(HORIZON_SECONDS, scenario.config.tick_seconds)
    with activate(telemetry):
        engine = build_cluster_engine(
            scenario, fleet_engine=fleet_engine, **_policy(policy, predictor)
        )
        for chunk in _chunks_to(total):
            engine.step(chunk)
        assert engine.current_tick == total
        outcome = engine.finish()
    return outcome, telemetry.digest()


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
@pytest.mark.parametrize("kind", ["memory", "threads", "two_resource"])
def test_step_loop_matches_run_no_rejuvenation(fleet_engine, kind):
    scenario = ClusterScenario.fast(kind=kind)
    batch, batch_digest = _run_batch(scenario, fleet_engine, "none", None)
    stepped, stepped_digest = _run_stepped(scenario, fleet_engine, "none", None)
    assert stepped.to_json() == batch.to_json()
    assert stepped_digest == batch_digest


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
def test_step_loop_matches_run_time_based(fleet_engine):
    scenario = ClusterScenario.fast()
    batch, batch_digest = _run_batch(scenario, fleet_engine, "time_based", None)
    stepped, stepped_digest = _run_stepped(scenario, fleet_engine, "time_based", None)
    assert stepped.to_json() == batch.to_json()
    assert stepped_digest == batch_digest


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
def test_step_loop_matches_run_rolling_predictive(fleet_engine, fast_scenario, fitted_predictor):
    batch, batch_digest = _run_batch(
        fast_scenario, fleet_engine, "rolling_predictive", fitted_predictor
    )
    stepped, stepped_digest = _run_stepped(
        fast_scenario, fleet_engine, "rolling_predictive", fitted_predictor
    )
    assert stepped.to_json() == batch.to_json()
    assert stepped_digest == batch_digest


def test_run_rejects_reuse_after_step():
    scenario = ClusterScenario.fast()
    engine = build_cluster_engine(scenario, NoClusterRejuvenation())
    engine.step(10)
    with pytest.raises(RuntimeError):
        engine.run(HORIZON_SECONDS)


def test_finish_is_single_use_and_step_after_finish_fails():
    scenario = ClusterScenario.fast()
    engine = build_cluster_engine(scenario, NoClusterRejuvenation())
    engine.step(5)
    engine.finish()
    with pytest.raises(RuntimeError):
        engine.finish()
    with pytest.raises(RuntimeError):
        engine.step(1)


@pytest.mark.parametrize("fleet_engine", ["event", "per_second", "fluid"])
def test_step_validates_tick_count(fleet_engine):
    engine = build_cluster_engine(
        ClusterScenario.fast(), NoClusterRejuvenation(), fleet_engine=fleet_engine
    )
    with pytest.raises(ValueError):
        engine.step(0)
