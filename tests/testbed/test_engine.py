"""Integration tests of the full simulation engine."""

import numpy as np
import pytest

from repro.lifecycle import LifecycleConfig
from repro.testbed.clock import TICK_SECONDS, SimulationClock
from repro.testbed.config import TestbedConfig
from repro.testbed.engine import ScheduledAction, TestbedSimulation
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.periodic import PeriodicPatternInjector
from repro.testbed.faults.thread_leak import ThreadLeakInjector
from repro.testbed.monitoring.metrics_catalog import RAW_METRICS


class TestClock:
    def test_advances_by_tick(self):
        clock = SimulationClock()
        assert clock.advance() == 1.0
        assert clock.advance() == 2.0
        clock.reset()
        assert clock.now == 0.0

    def test_the_tick_is_a_constant(self):
        assert TestbedConfig().tick_seconds == TICK_SECONDS == 1.0
        with pytest.raises(TypeError):
            TestbedConfig(tick_seconds=0.5)
        with pytest.raises(TypeError):
            LifecycleConfig(tick_seconds=2.0)
        with pytest.raises(TypeError):
            SimulationClock(2.0)


class TestBasicRuns:
    def test_no_injection_run_does_not_crash(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=20, seed=0)
        trace = simulation.run(max_seconds=900)
        assert not trace.crashed
        assert trace.crash_time_seconds is None
        assert len(trace) == 900 // 15

    def test_memory_leak_run_crashes_with_memory(self, fast_config):
        simulation = TestbedSimulation(
            config=fast_config,
            workload_ebs=50,
            injectors=[MemoryLeakInjector(n=5, seed=1)],
            seed=1,
        )
        trace = simulation.run(max_seconds=7200)
        assert trace.crashed
        assert trace.crash_resource == "memory"
        assert trace.crash_time_seconds is not None
        assert trace.crash_time_seconds > 0

    def test_thread_leak_run_crashes_with_threads(self, fast_config):
        simulation = TestbedSimulation(
            config=fast_config,
            workload_ebs=20,
            injectors=[ThreadLeakInjector(m=10, t=30, seed=2)],
            seed=2,
        )
        trace = simulation.run(max_seconds=7200)
        assert trace.crashed
        assert trace.crash_resource == "threads"

    def test_samples_are_taken_every_interval(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=10, seed=3)
        trace = simulation.run(max_seconds=300)
        times = trace.times()
        assert np.allclose(np.diff(times), fast_config.monitoring_interval_s)

    def test_simulation_is_single_use(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=4)
        simulation.run(max_seconds=60)
        with pytest.raises(RuntimeError):
            simulation.run(max_seconds=60)

    def test_rejects_bad_max_seconds(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=4)
        with pytest.raises(ValueError):
            simulation.run(max_seconds=0)


class TestDeterminism:
    def test_same_seed_same_trace(self, fast_config):
        def crash_time(seed):
            simulation = TestbedSimulation(
                config=fast_config,
                workload_ebs=40,
                injectors=[MemoryLeakInjector(n=5, seed=11)],
                seed=seed,
            )
            return simulation.run(max_seconds=7200).crash_time_seconds

        assert crash_time(5) == crash_time(5)

    def test_different_seed_different_trace(self, fast_config):
        def crash_time(seed):
            simulation = TestbedSimulation(
                config=fast_config,
                workload_ebs=40,
                injectors=[MemoryLeakInjector(n=5, seed=seed)],
                seed=seed,
            )
            return simulation.run(max_seconds=7200).crash_time_seconds

        assert crash_time(6) != crash_time(7)


class TestAgingPhenomena:
    def test_heavier_workload_crashes_sooner(self, fast_config):
        def crash_time(ebs):
            simulation = TestbedSimulation(
                config=fast_config,
                workload_ebs=ebs,
                injectors=[MemoryLeakInjector(n=10, seed=21)],
                seed=21,
            )
            return simulation.run(max_seconds=14_400).crash_time_seconds

        # The memory leak is workload coupled: more emulated browsers mean
        # more search requests and therefore earlier exhaustion.
        assert crash_time(60) < crash_time(15)

    def test_os_memory_view_is_monotonic_under_periodic_pattern(self, fast_config):
        simulation = TestbedSimulation(
            config=fast_config,
            workload_ebs=30,
            injectors=[
                PeriodicPatternInjector(
                    phase_duration_s=120.0, acquire_n=5, release_n=10, full_release=True, seed=22
                )
            ],
            seed=22,
        )
        trace = simulation.run(max_seconds=1800)
        os_view = trace.series("tomcat_memory_used_mb")
        jvm_view = trace.series("old_used_mb") + trace.series("young_used_mb")
        assert np.all(np.diff(os_view) >= -1e-9), "OS view must never shrink"
        # The JVM view must show the release phases (non-monotonic).
        assert np.any(np.diff(jvm_view) < -0.5)

    def test_old_zone_resizes_recorded(self, fast_config):
        simulation = TestbedSimulation(
            config=fast_config,
            workload_ebs=50,
            injectors=[MemoryLeakInjector(n=5, seed=23)],
            seed=23,
        )
        simulation.run(max_seconds=7200)
        assert simulation.heap.collector.resizes >= 1

    def test_throughput_scales_with_workload(self, fast_config):
        def mean_throughput(ebs):
            simulation = TestbedSimulation(config=fast_config, workload_ebs=ebs, seed=24)
            trace = simulation.run(max_seconds=600)
            return float(np.mean(trace.series("throughput_rps")))

        assert mean_throughput(40) > mean_throughput(10) * 2.0


class TestScheduledActions:
    def test_injection_rate_change_applies_at_scheduled_time(self, fast_config):
        injector = MemoryLeakInjector(n=None, seed=31)
        simulation = TestbedSimulation(
            config=fast_config,
            workload_ebs=40,
            injectors=[injector],
            schedule=[ScheduledAction(300.0, lambda sim: injector.set_rate(5), label="start injection")],
            seed=31,
        )
        trace = simulation.run(max_seconds=3600)
        old_used = trace.series("old_used_mb")
        times = trace.times()
        before = old_used[times <= 300.0]
        after = old_used[times > 600.0]
        assert before.max() < 20.0
        assert after.max() > before.max()
        assert "start injection" in trace.metadata["schedule"]

    def test_schedule_runs_in_time_order(self, fast_config):
        applied = []
        schedule = [
            ScheduledAction(200.0, lambda sim: applied.append("second"), label="b"),
            ScheduledAction(100.0, lambda sim: applied.append("first"), label="a"),
        ]
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, schedule=schedule, seed=32)
        simulation.run(max_seconds=300)
        assert applied == ["first", "second"]


class TestTraceAndMetrics:
    def test_trace_series_and_dict_cover_all_raw_metrics(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=10, seed=41)
        trace = simulation.run(max_seconds=300)
        sample = trace.samples[0]
        as_dict = sample.as_dict()
        for metric in RAW_METRICS:
            assert hasattr(sample, metric.attribute), metric.name
            assert metric.attribute in as_dict
        assert len(RAW_METRICS) == 18

    def test_trace_unknown_series_raises(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=42)
        trace = simulation.run(max_seconds=120)
        with pytest.raises(AttributeError):
            trace.series("nonexistent_metric")

    def test_time_to_failure_requires_crash(self, fast_config):
        simulation = TestbedSimulation(config=fast_config, workload_ebs=5, seed=43)
        trace = simulation.run(max_seconds=120)
        with pytest.raises(ValueError):
            trace.time_to_failure()

    def test_time_to_failure_decreases_to_zero(self, fast_config):
        simulation = TestbedSimulation(
            config=fast_config,
            workload_ebs=50,
            injectors=[MemoryLeakInjector(n=5, seed=44)],
            seed=44,
        )
        trace = simulation.run(max_seconds=7200)
        ttf = trace.time_to_failure()
        assert np.all(np.diff(ttf) < 0)
        assert ttf[-1] >= 0
        assert ttf[0] == pytest.approx(trace.crash_time_seconds - trace.samples[0].time_seconds)

    def test_trace_metadata_describes_injectors(self, fast_config):
        simulation = TestbedSimulation(
            config=fast_config,
            workload_ebs=10,
            injectors=[MemoryLeakInjector(n=30, seed=45)],
            seed=45,
        )
        trace = simulation.run(max_seconds=120)
        assert any("MemoryLeakInjector" in item for item in trace.metadata["injectors"])
        assert trace.workload_ebs == 10
