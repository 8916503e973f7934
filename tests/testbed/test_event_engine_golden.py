"""Golden-trace regression: single-server event engine == per-second engine.

``TestbedSimulation.run`` is event-driven and promises *bit-for-bit*
identical seeded runs to the per-second reference loop
(:func:`tests.testbed.oracle.run_per_second`).  These tests pin that
promise across every scenario kind the experiments use -- memory leak,
thread leak, periodic pattern, dynamic schedule, no injection -- plus the
hard scheduling cases: fast-forwarding over a pending mid-run action and a
mid-run workload population change.

Equality is checked with no tolerance on:

* every monitoring sample field (dataclass equality over the 19 raw
  Table 2 variables),
* the crash flag, crash time and crash resource,
* the heap's GC event log (the single-server event loop keeps the clock
  eager, so even GC timestamps match -- stronger than the cluster nodes'
  contract),
* the served-request and servlet-invocation counters, and
* the final OS telemetry (load average, disk, swap, memory, processes).
"""

import pytest

from repro.testbed.engine import ScheduledAction, TestbedSimulation
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.periodic import PeriodicPatternInjector
from repro.testbed.faults.thread_leak import ThreadLeakInjector
from tests.testbed.oracle import run_per_second


def run_both(make_simulation, max_seconds):
    """Run the same seeded scenario through both engines and compare exactly."""
    reference = make_simulation()
    reference_trace = run_per_second(reference, max_seconds=max_seconds)
    event = make_simulation()
    event_trace = event.run(max_seconds=max_seconds)

    assert len(reference_trace.samples) == len(event_trace.samples)
    for index, (ref_sample, ev_sample) in enumerate(
        zip(reference_trace.samples, event_trace.samples)
    ):
        assert ref_sample == ev_sample, (
            f"sample {index} diverged: "
            f"{ {k: (v, ev_sample.as_dict()[k]) for k, v in ref_sample.as_dict().items() if v != ev_sample.as_dict()[k]} }"
        )
    assert reference_trace.crashed == event_trace.crashed
    assert reference_trace.crash_time_seconds == event_trace.crash_time_seconds
    assert reference_trace.crash_resource == event_trace.crash_resource
    assert reference.heap.collector.events == event.heap.collector.events
    assert reference.server.total_requests == event.server.total_requests
    for ref_servlet, ev_servlet in zip(reference.server.servlets, event.server.servlets):
        assert ref_servlet.invocations == ev_servlet.invocations
    assert reference.operating_system.telemetry(
        reference.thread_pool.total_threads
    ) == event.operating_system.telemetry(event.thread_pool.total_threads)
    assert reference.clock.now == event.clock.now
    return reference_trace, event_trace


class TestGoldenScenarioKinds:
    def test_no_injection(self, fast_config):
        """The healthy training run: full horizon, identical samples."""
        trace, _ = run_both(
            lambda: TestbedSimulation(config=fast_config, workload_ebs=50, seed=2010),
            max_seconds=1800,
        )
        assert not trace.crashed
        assert len(trace.samples) == 120

    def test_memory_leak_crash(self, fast_config):
        """Workload-coupled leak: crash time reproduced to the tick."""
        trace, _ = run_both(
            lambda: TestbedSimulation(
                config=fast_config,
                workload_ebs=40,
                injectors=[MemoryLeakInjector(n=5, seed=44)],
                seed=44,
            ),
            max_seconds=7200,
        )
        assert trace.crashed and trace.crash_resource == "memory"

    def test_thread_leak_crash(self, fast_config):
        """Time-driven leak: injector wake events replay on_tick exactly."""
        trace, _ = run_both(
            lambda: TestbedSimulation(
                config=fast_config,
                workload_ebs=20,
                injectors=[ThreadLeakInjector(m=20, t=40, seed=9)],
                seed=9,
            ),
            max_seconds=7200,
        )
        assert trace.crashed and trace.crash_resource == "threads"

    def test_periodic_pattern_crash(self, fast_config):
        """Phase rotations (the injector's tick horizon) land on exact ticks."""
        trace, _ = run_both(
            lambda: TestbedSimulation(
                config=fast_config,
                workload_ebs=30,
                injectors=[
                    PeriodicPatternInjector(
                        phase_duration_s=300.0, acquire_n=5, release_n=20, seed=3
                    )
                ],
                seed=3,
            ),
            max_seconds=10800,
        )
        assert trace.crashed

    def test_dynamic_schedule_crash(self, fast_config):
        """Experiment-4.2-style mid-run rate changes apply on the exact tick."""

        def make():
            injector = MemoryLeakInjector(n=None, seed=31)
            schedule = [
                ScheduledAction(600.0, lambda sim, i=injector: i.set_rate(5), label="N=5"),
                ScheduledAction(1500.0, lambda sim, i=injector: i.set_rate(30), label="N=30"),
                ScheduledAction(2100.0, lambda sim, i=injector: i.set_rate(3), label="N=3"),
            ]
            return TestbedSimulation(
                config=fast_config,
                workload_ebs=40,
                injectors=[injector],
                schedule=schedule,
                seed=31,
            )

        trace, _ = run_both(make, max_seconds=14400)
        assert trace.crashed


class TestGoldenSchedulingEdges:
    def test_fast_forward_over_pending_action(self, fast_config):
        """A scheduled action inside a long idle gap is a first-class wake.

        One emulated browser leaves multi-tick gaps between requests and
        between monitoring marks; a rate change scheduled inside such a gap
        used to be unreachable for the fused fast-forward
        (``cluster_mark_tick`` raises ``RuntimeError`` when asked to skip
        one).  The scheduler must wake on the action's exact tick instead.
        """

        def make():
            injector = MemoryLeakInjector(n=None, seed=5)
            schedule = [
                ScheduledAction(100.0, lambda sim, i=injector: i.set_rate(1), label="enable"),
                ScheduledAction(400.0, lambda sim, i=injector: i.set_rate(None), label="disable"),
            ]
            return TestbedSimulation(
                config=fast_config,
                workload_ebs=1,
                injectors=[injector],
                schedule=schedule,
                seed=5,
            )

        trace, _ = run_both(make, max_seconds=1800)
        assert not trace.crashed
        assert len(trace.samples) == 120

    def test_population_change_mid_run(self, fast_config):
        """Growing, shrinking and regrowing the EB population mid-run.

        Exercises the scheduler's stale-entry skipping (removed browsers)
        and fresh-browser scheduling (grown browsers fire from the action
        tick, like the reference loop first ticking them).
        """

        def make():
            schedule = [
                ScheduledAction(200.0, lambda sim: sim.workload.set_num_browsers(60), label="grow"),
                ScheduledAction(500.0, lambda sim: sim.workload.set_num_browsers(10), label="shrink"),
                ScheduledAction(800.0, lambda sim: sim.workload.set_num_browsers(35), label="regrow"),
            ]
            return TestbedSimulation(config=fast_config, workload_ebs=20, schedule=schedule, seed=12)

        run_both(make, max_seconds=1200)

    def test_two_resource_schedule(self, fast_config):
        """Memory and thread injectors together with mid-run rate changes."""

        def make():
            memory = MemoryLeakInjector(n=8, seed=13)
            threads = ThreadLeakInjector(m=6, t=50, seed=14, enabled=False)
            schedule = [
                ScheduledAction(300.0, lambda sim, t=threads: t.set_rate(6, 50), label="threads on"),
                ScheduledAction(900.0, lambda sim, m=memory: m.set_rate(3), label="memory up"),
            ]
            return TestbedSimulation(
                config=fast_config,
                workload_ebs=25,
                injectors=[memory, threads],
                schedule=schedule,
                seed=13,
            )

        trace, _ = run_both(make, max_seconds=10800)
        assert trace.crashed


class TestEngineSelection:
    def test_unknown_engine_rejected(self, fast_config):
        """``run`` has no engine choice left: any engine argument is an error."""
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=1)
        with pytest.raises(TypeError, match="engine"):
            simulation.run(max_seconds=60, engine="warp")

    def test_event_engine_is_single_use(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=2)
        simulation.run(max_seconds=60)
        with pytest.raises(RuntimeError):
            simulation.run(max_seconds=60)

    def test_per_second_reference_is_single_use(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=2)
        run_per_second(simulation, max_seconds=60)
        with pytest.raises(RuntimeError):
            run_per_second(simulation, max_seconds=60)

    def test_event_engine_rejects_nonpositive_horizon(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=3)
        with pytest.raises(ValueError):
            simulation.run(max_seconds=0)
