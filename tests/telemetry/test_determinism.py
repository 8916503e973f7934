"""The telemetry determinism contract, end to end.

Three claims, each the trace-level extension of an existing bit-for-bit
guarantee of the repo:

1. *Engine invariance*: the event-driven engines and the per-second
   reference loops of ``tests/testbed/oracle.py`` and
   ``tests/cluster/oracle.py`` record byte-identical ``sim``-channel lines —
   equal digests — for the same seeded run, single-server and cluster alike
   (extends the golden parity suites).
2. *Repeat invariance*: the same spec and seed produce a byte-identical
   sidecar, full stop (extends envelope byte-stability).
3. *Observer transparency*: running under telemetry changes nothing about
   the simulated results — traced and untraced envelopes are byte-equal.

Worker-count invariance of sweep-written sidecars lives with the executor
tests in ``tests/api/test_sweep_parallel.py``.
"""

import pytest

from repro import api
from repro.cluster.coordinator import RollingPredictiveRejuvenation
from repro.cluster.engine import ClusterEngine
from repro.cluster.routing import AgingAwareRouting
from repro.experiments.scenarios import ClusterScenario
from repro.telemetry import SIM, Telemetry, activate, trace_digest, trace_text
from repro.testbed.config import TestbedConfig
from repro.testbed.engine import TestbedSimulation
from repro.testbed.events import run_event_driven
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from tests.cluster.oracle import PerSecondClusterEngine
from tests.testbed.oracle import per_second_engine, run_per_second


def fast_config() -> TestbedConfig:
    return TestbedConfig(
        heap_max_mb=160.0,
        young_capacity_mb=16.0,
        old_initial_mb=48.0,
        old_resize_step_mb=32.0,
        perm_mb=16.0,
        max_threads=96,
        base_worker_threads=16,
    )


def run_single_server(engine: str) -> tuple[object, Telemetry]:
    telemetry = Telemetry()
    telemetry.meta = {"experiment": "unit", "params": {"seed": 11}}
    with activate(telemetry):
        simulation = TestbedSimulation(
            config=fast_config(),
            workload_ebs=30,
            injectors=[MemoryLeakInjector(n=5, leak_mb=3.0)],
            seed=11,
        )
        if engine == "event":
            trace = run_event_driven(simulation, 7200.0)
        else:
            trace = run_per_second(simulation, 7200.0)
    return trace, telemetry


def run_cluster(engine_class) -> tuple[object, Telemetry]:
    scenario = ClusterScenario.fast("memory")
    telemetry = Telemetry()
    telemetry.meta = {"experiment": "cluster-unit", "params": {"seed": scenario.cluster_seed}}
    with activate(telemetry):
        engine = engine_class(
            num_nodes=scenario.num_nodes,
            config=scenario.config,
            node_configs=scenario.node_configs,
            total_ebs=scenario.total_ebs,
            injector_factory=scenario.injector_factory,
            routing_policy=AgingAwareRouting(),
            coordinator=RollingPredictiveRejuvenation(),
            alarm_threshold_seconds=scenario.alarm_threshold_seconds,
            alarm_consecutive=scenario.alarm_consecutive,
        )
        outcome = engine.run(3600.0)
    return outcome, telemetry


def sim_lines(telemetry: Telemetry) -> list[str]:
    return [line for line in trace_text(telemetry).splitlines() if f'"channel":"{SIM}"' in line]


class TestEngineInvariance:
    def test_single_server_digests_agree(self):
        trace_ps, tel_ps = run_single_server("per_second")
        trace_ev, tel_ev = run_single_server("event")
        assert trace_ps.samples == trace_ev.samples  # the pre-existing parity contract
        assert sim_lines(tel_ps) == sim_lines(tel_ev)
        assert trace_digest(tel_ps) == trace_digest(tel_ev)

    def test_single_server_engine_channels_differ(self):
        _, tel_ps = run_single_server("per_second")
        _, tel_ev = run_single_server("event")
        # The full sidecars differ (engine mechanics are engine-specific);
        # only the sim channel is digest-bound.
        assert trace_text(tel_ps) != trace_text(tel_ev)

    def test_cluster_digests_agree(self):
        outcome_ps, tel_ps = run_cluster(PerSecondClusterEngine)
        outcome_ev, tel_ev = run_cluster(ClusterEngine)
        assert outcome_ps == outcome_ev  # the pre-existing golden contract
        assert sim_lines(tel_ps) == sim_lines(tel_ev)
        assert trace_digest(tel_ps) == trace_digest(tel_ev)


class TestRepeatInvariance:
    def test_single_server_sidecar_bytes_stable(self):
        _, first = run_single_server("event")
        _, second = run_single_server("event")
        assert trace_text(first) == trace_text(second)

    def test_cluster_sidecar_bytes_stable(self):
        _, first = run_cluster(ClusterEngine)
        _, second = run_cluster(ClusterEngine)
        assert trace_text(first) == trace_text(second)


class TestObserverTransparency:
    @pytest.mark.parametrize("name", ["figure1", "cluster"])
    def test_traced_and_untraced_envelopes_are_byte_equal(self, name):
        plain = api.run(name, scale="small", seed=9)
        telemetry = Telemetry()
        traced = api.run(name, scale="small", seed=9, telemetry=telemetry)
        assert traced.to_json() == plain.to_json()
        assert plain.telemetry_digest is None
        assert traced.telemetry_digest == trace_digest(telemetry)
        assert telemetry.meta == {
            "experiment": name,
            "params": {k: v for k, v in traced.params.items() if k != "engine"},
        }

    def test_run_digest_is_engine_invariant(self, per_second_engine):
        """figure1 through ``api.run``: the per-second loop gives the same digest."""
        event = api.run("figure1", scale="small", seed=9, telemetry=Telemetry())
        with per_second_engine():
            reference = api.run("figure1", scale="small", seed=9, telemetry=Telemetry())
        assert reference.telemetry_digest == event.telemetry_digest
        assert reference.to_json() == event.to_json()
