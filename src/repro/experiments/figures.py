"""Data series behind the paper's two motivating figures (Figures 1 and 2).

Figure 1 shows the memory actually used by the Java application under a
constant-rate leak and constant workload: the consumption is *not* linear
because the heap management system resizes the Old zone and releases memory
at a few points of the execution, buying the application extra minutes of
life a naive slope extrapolation would miss.

Figure 2 shows the same resource from two viewpoints during a benign
periodic acquire/release pattern: the JVM-level view (Young + Old occupancy)
waves up and down, while the OS-level view of the Tomcat process stays flat
because Linux does not take freed memory back from a process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.scenarios import ExperimentScenarios
from repro.testbed.engine import TestbedSimulation
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.periodic import PeriodicPatternInjector

__all__ = ["Figure1Series", "Figure2Series", "figure1_series", "figure2_series"]


@dataclass
class Figure1Series:
    """Figure 1: nonlinear memory behaviour under a constant-rate leak."""

    time_seconds: np.ndarray
    os_memory_mb: np.ndarray
    jvm_heap_used_mb: np.ndarray
    old_resize_times: tuple[float, ...]
    crash_time_seconds: float

    def has_flat_zones(self, tolerance_mb: float = 0.5) -> bool:
        """Whether the OS-level signal contains flat (non-growing) stretches."""
        deltas = np.diff(self.os_memory_mb)
        return bool(np.mean(deltas < tolerance_mb) > 0.2)

    def extra_life_seconds(self) -> float:
        """Extra lifetime compared with extrapolating the initial slope.

        The paper quantifies the effect at "about 16 extra minutes" for its
        configuration: the initial consumption rate predicts an earlier
        exhaustion than what actually happens because full GCs reclaim the
        promoted garbage along the way.
        """
        quarter = max(len(self.time_seconds) // 4, 2)
        times = self.time_seconds[:quarter]
        values = self.os_memory_mb[:quarter]
        slope = float(np.polyfit(times, values, 1)[0])
        if slope <= 0:
            return 0.0
        capacity = float(self.os_memory_mb.max())
        naive_crash = times[0] + (capacity - values[0]) / slope
        return float(self.crash_time_seconds - naive_crash)


@dataclass
class Figure2Series:
    """Figure 2: OS-level versus JVM-level view of a periodic memory pattern."""

    time_seconds: np.ndarray
    os_memory_mb: np.ndarray
    jvm_heap_used_mb: np.ndarray
    phase_starts: tuple[float, ...]

    def os_view_is_flat_after_warmup(self, warmup_fraction: float = 0.3, tolerance_mb: float = 20.0) -> bool:
        """Whether the OS view stops moving once the first peak is reached."""
        start = int(len(self.time_seconds) * warmup_fraction)
        tail = self.os_memory_mb[start:]
        return float(tail.max() - tail.min()) <= tolerance_mb

    def jvm_view_oscillates(self, minimum_swing_mb: float = 10.0) -> bool:
        """Whether the JVM view shows the acquire/release waves."""
        start = len(self.time_seconds) // 3
        tail = self.jvm_heap_used_mb[start:]
        return float(tail.max() - tail.min()) >= minimum_swing_mb


def figure1_series(
    scenarios: ExperimentScenarios | None = None,
) -> Figure1Series:
    """Run the Figure 1 experiment: constant workload, constant-rate leak."""
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    simulation = TestbedSimulation(
        config=active.config,
        workload_ebs=active.workload_42,
        injectors=[MemoryLeakInjector(n=active.memory_n_41, seed=active.seed_for(500))],
        seed=active.seed_for(500),
    )
    trace = simulation.run(max_seconds=12 * 3600.0)
    if not trace.crashed:
        raise RuntimeError("the Figure 1 run did not crash; increase the leak rate")
    return Figure1Series(
        time_seconds=trace.times(),
        os_memory_mb=trace.series("tomcat_memory_used_mb"),
        jvm_heap_used_mb=trace.series("young_used_mb") + trace.series("old_used_mb"),
        old_resize_times=tuple(simulation.heap.collector.resize_times()),
        crash_time_seconds=float(trace.crash_time_seconds or trace.duration_seconds),
    )


def figure2_series(
    scenarios: ExperimentScenarios | None = None,
    num_cycles: int = 5,
) -> Figure2Series:
    """Run the Figure 2 experiment: benign periodic acquire/release pattern.

    The paper repeats the hourly pattern for five hours; ``num_cycles``
    controls how many normal/acquire/release cycles are simulated.
    """
    if num_cycles < 1:
        raise ValueError("num_cycles must be at least 1")
    active = scenarios if scenarios is not None else ExperimentScenarios.paper_scale()
    injector = PeriodicPatternInjector(
        phase_duration_s=active.phase_seconds_43,
        acquire_n=active.acquire_n_43,
        release_n=max(active.acquire_n_43 // 2, 1),
        full_release=True,
        seed=active.seed_for(510),
    )
    simulation = TestbedSimulation(
        config=active.config,
        workload_ebs=active.workload_42,
        injectors=[injector],
        seed=active.seed_for(510),
    )
    duration = 3 * active.phase_seconds_43 * num_cycles
    trace = simulation.run(max_seconds=duration)
    return Figure2Series(
        time_seconds=trace.times(),
        os_memory_mb=trace.series("tomcat_memory_used_mb"),
        jvm_heap_used_mb=trace.series("young_used_mb") + trace.series("old_used_mb"),
        phase_starts=tuple(start for start, _phase in injector.phase_history),
    )
