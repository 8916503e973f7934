"""Trace-generation helpers shared by every experiment driver.

These functions wrap :class:`repro.testbed.engine.TestbedSimulation` with the
concrete fault configurations the paper uses: constant-rate memory leaks
(parameter ``N``), thread leaks (``M``, ``T``), the periodic acquire/release
pattern, schedules of mid-run rate changes, and plain no-injection runs.
Every helper is deterministic given its seed and runs on the event-driven
scheduler behind :meth:`TestbedSimulation.run`.
"""

from __future__ import annotations

from typing import Sequence

from repro.testbed.config import TestbedConfig
from repro.testbed.engine import ScheduledAction, TestbedSimulation
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.periodic import PeriodicPatternInjector
from repro.testbed.faults.thread_leak import ThreadLeakInjector
from repro.testbed.monitoring.collector import Trace

__all__ = [
    "run_no_injection_trace",
    "run_memory_leak_trace",
    "run_thread_leak_trace",
    "run_dynamic_memory_trace",
    "run_periodic_pattern_trace",
    "run_two_resource_trace",
]

#: Generous default wall for runs that are expected to crash on their own.
_DEFAULT_MAX_SECONDS = 12 * 3600.0


def run_no_injection_trace(
    config: TestbedConfig,
    workload_ebs: int,
    duration_seconds: float = 3600.0,
    seed: int = 0,
) -> Trace:
    """A healthy run with no fault injection (the paper's one-hour baseline)."""
    simulation = TestbedSimulation(config=config, workload_ebs=workload_ebs, seed=seed)
    return simulation.run(max_seconds=duration_seconds)


def run_memory_leak_trace(
    config: TestbedConfig,
    workload_ebs: int,
    n: int,
    leak_mb: float = 1.0,
    seed: int = 0,
    max_seconds: float = _DEFAULT_MAX_SECONDS,
) -> Trace:
    """A run with the constant-rate, workload-coupled memory leak (Exp. 4.1)."""
    simulation = TestbedSimulation(
        config=config,
        workload_ebs=workload_ebs,
        injectors=[MemoryLeakInjector(n=n, leak_mb=leak_mb, seed=seed)],
        seed=seed,
    )
    return simulation.run(max_seconds=max_seconds)


def run_thread_leak_trace(
    config: TestbedConfig,
    workload_ebs: int,
    m: int,
    t: int,
    seed: int = 0,
    max_seconds: float = _DEFAULT_MAX_SECONDS,
) -> Trace:
    """A run with the workload-independent thread leak (Exp. 4.4 training)."""
    simulation = TestbedSimulation(
        config=config,
        workload_ebs=workload_ebs,
        injectors=[ThreadLeakInjector(m=m, t=t, seed=seed)],
        seed=seed,
    )
    return simulation.run(max_seconds=max_seconds)


def run_dynamic_memory_trace(
    config: TestbedConfig,
    workload_ebs: int,
    phases: Sequence[tuple[float, int | None]],
    leak_mb: float = 1.0,
    seed: int = 0,
    max_seconds: float = _DEFAULT_MAX_SECONDS,
) -> Trace:
    """A run whose memory-leak rate changes mid-run (Experiment 4.2).

    ``phases`` is a sequence of ``(start_time_seconds, n)`` pairs; ``n=None``
    means no injection during that phase.  The first phase should start at 0.
    """
    if not phases:
        raise ValueError("at least one phase is required")
    injector = MemoryLeakInjector(n=phases[0][1], leak_mb=leak_mb, seed=seed)
    schedule = [
        ScheduledAction(
            time_seconds=start,
            action=lambda sim, rate=n: injector.set_rate(rate),
            label=f"memory injection N={n}" if n is not None else "no injection",
        )
        for start, n in phases[1:]
    ]
    simulation = TestbedSimulation(
        config=config,
        workload_ebs=workload_ebs,
        injectors=[injector],
        schedule=schedule,
        seed=seed,
    )
    return simulation.run(max_seconds=max_seconds)


def run_periodic_pattern_trace(
    config: TestbedConfig,
    workload_ebs: int,
    phase_duration_s: float,
    acquire_n: int = 30,
    release_n: int = 75,
    full_release: bool = False,
    seed: int = 0,
    max_seconds: float = _DEFAULT_MAX_SECONDS,
) -> Trace:
    """A run with the periodic acquire/release pattern (Figure 2 / Exp. 4.3)."""
    injector = PeriodicPatternInjector(
        phase_duration_s=phase_duration_s,
        acquire_n=acquire_n,
        release_n=release_n,
        full_release=full_release,
        seed=seed,
    )
    simulation = TestbedSimulation(
        config=config,
        workload_ebs=workload_ebs,
        injectors=[injector],
        seed=seed,
    )
    return simulation.run(max_seconds=max_seconds)


def run_two_resource_trace(
    config: TestbedConfig,
    workload_ebs: int,
    phases: Sequence[tuple[float, int | None, int | None, int | None]],
    leak_mb: float = 1.0,
    seed: int = 0,
    max_seconds: float = _DEFAULT_MAX_SECONDS,
) -> Trace:
    """A run where memory and thread leaks are injected simultaneously (Exp. 4.4).

    ``phases`` entries are ``(start_time_seconds, n, m, t)``; ``None`` for
    ``n`` or ``m`` disables the corresponding injector during that phase.
    """
    if not phases:
        raise ValueError("at least one phase is required")
    first = phases[0]
    memory_injector = MemoryLeakInjector(n=first[1], leak_mb=leak_mb, seed=seed)
    thread_injector = ThreadLeakInjector(
        m=first[2] if first[2] is not None else 1,
        t=first[3] if first[3] is not None else 60,
        seed=seed + 1,
        enabled=first[2] is not None,
    )
    schedule: list[ScheduledAction] = []
    for start, n, m, t in phases[1:]:
        schedule.append(
            ScheduledAction(
                time_seconds=start,
                action=lambda sim, rate=n: memory_injector.set_rate(rate),
                label=f"memory N={n}",
            )
        )
        schedule.append(
            ScheduledAction(
                time_seconds=start,
                action=lambda sim, m_rate=m, t_rate=t: thread_injector.set_rate(m_rate, t_rate),
                label=f"threads M={m}, T={t}",
            )
        )
    simulation = TestbedSimulation(
        config=config,
        workload_ebs=workload_ebs,
        injectors=[memory_injector, thread_injector],
        schedule=schedule,
        seed=seed,
    )
    return simulation.run(max_seconds=max_seconds)
