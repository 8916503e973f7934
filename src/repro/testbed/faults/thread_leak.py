"""Time-driven thread-leak injection (the paper's parameters ``M`` and ``T``).

From the experimental setup: "to simulate a thread consumption in the servlet
we use two parameters: T and M.  At every injection, the system injects a
random number of threads between 0 and M, and determines how much time occurs
until the next injection, a random number (in seconds) between 0 and T.
Thread injection is independent of the workload."

Each leaked thread pins native stack memory at the OS level and retains a
small amount of Java heap (the paper stresses in Experiment 4.4 that threads
and memory are "related after all"), so thread aging also accelerates memory
aging -- the coupling that makes the two-resource scenario interesting.
"""

from __future__ import annotations

import random

from repro.testbed.faults.injector import FaultInjector

__all__ = ["ThreadLeakInjector"]


class ThreadLeakInjector(FaultInjector):
    """Leak a random batch of threads at random intervals.

    Parameters
    ----------
    m:
        Maximum threads injected per event (drawn uniformly from ``0..M``).
    t:
        Maximum seconds between injection events (drawn uniformly from
        ``0..T``).
    seed:
        Seed of the injector's private random generator.
    enabled:
        Whether injection starts active; scenarios with a no-injection first
        phase start it disabled and call :meth:`set_rate` later.
    """

    def __init__(self, m: int = 30, t: int = 90, seed: int = 0, enabled: bool = True) -> None:
        super().__init__()
        if m < 1:
            raise ValueError("m must be at least 1")
        if t < 1:
            raise ValueError("t must be at least 1")
        self._m = m
        self._t = t
        self._enabled = enabled
        self._rng = random.Random(seed)
        self._next_injection_time = self._rng.uniform(0.0, float(t))
        self.total_injections = 0
        self.total_threads_leaked = 0

    # ------------------------------------------------------------------ rate

    @property
    def m(self) -> int:
        return self._m

    @property
    def t(self) -> int:
        return self._t

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_rate(self, m: int | None, t: int | None = None) -> None:
        """Change the injection parameters mid-run; ``m=None`` disables it."""
        if m is None:
            self._enabled = False
            return
        if m < 1:
            raise ValueError("m must be at least 1 (or None to disable injection)")
        self._m = m
        if t is not None:
            if t < 1:
                raise ValueError("t must be at least 1")
            self._t = t
        self._enabled = True

    # ------------------------------------------------------------ injections

    def on_tick(self, time_seconds: float) -> None:
        """Inject a batch of threads whenever the scheduled time is reached."""
        if not self._enabled:
            # Keep pushing the schedule forward so re-enabling does not cause
            # a burst of catch-up injections.
            if time_seconds >= self._next_injection_time:
                self._next_injection_time = time_seconds + self._rng.uniform(0.0, float(self._t))
            return
        while time_seconds >= self._next_injection_time:
            count = self._rng.randint(0, self._m)
            if count > 0:
                self._leak(count)
            self._next_injection_time += self._rng.uniform(0.0, float(self._t)) + 1e-9
            self.total_injections += 1

    def tick_event_horizon(self, now_seconds: float) -> float | None:
        """Next scheduled injection time (also valid while disabled).

        While disabled, ``on_tick`` still pushes the schedule forward once
        ``_next_injection_time`` is reached, so the horizon applies to both
        modes: any ``on_tick`` call strictly before it is a no-op.
        """
        return self._next_injection_time

    def _leak(self, count: int) -> None:
        server = self.server
        # Heap retained by the thread objects themselves; allocate first so a
        # memory-driven crash is attributed to memory, then create the native
        # threads (which may crash with ThreadExhaustionError).
        overhead_mb = count * server.config.thread_heap_overhead_mb
        if overhead_mb > 0:
            server.heap.allocate_leak(overhead_mb)
        server.thread_pool.leak(count)
        self.total_threads_leaked += count

    def describe(self) -> str:
        state = f"M={self._m}, T={self._t}" if self._enabled else "disabled"
        return f"ThreadLeakInjector({state})"
