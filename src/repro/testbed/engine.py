"""The simulation engine that wires the testbed together and runs experiments.

``TestbedSimulation`` assembles the workload generator, application server,
JVM heap, OS view, database and fault injectors, advances them tick by tick,
samples the monitoring variables every 15 seconds and stops either when the
server crashes (the normal ending of an aging experiment) or when a time
limit is reached (the paper's one-hour no-injection training run).

Mid-run changes -- the essence of the dynamic scenarios of Experiments 4.2
and 4.4, where injection rates change every 20 or 30 minutes -- are expressed
as :class:`ScheduledAction` objects: a time plus a callable that receives the
simulation.  The event-driven engine turns those times into first-class wake
events, so fast-forwards never skip over a pending action.

:meth:`TestbedSimulation.run` is event-driven: it delegates to the shared
scheduler of :mod:`repro.testbed.events`, which advances the run from
interesting event to interesting event (browser request arrivals,
monitoring marks, injector firings, scheduled actions) and fast-forwards the
gaps in exact batches.  Its traces are golden-tested bit for bit against the
original tick-everything loop, which the test suite keeps as its reference.

Besides the self-driven run, the simulation exposes a step-wise API
(:meth:`~TestbedSimulation.begin`,
:meth:`~TestbedSimulation.drive_injectors`,
:meth:`~TestbedSimulation.end_tick`,
:meth:`~TestbedSimulation.record_crash`) so an external driver -- the
clustered deployment of :mod:`repro.cluster` -- can advance many nodes on a
shared clock and route requests from a fleet-level load balancer instead of
the node's own workload generator; routed requests go through the serving
kernel of :mod:`repro.testbed.events`, built over the simulation's
``server``.  :meth:`~TestbedSimulation.begin_tick` is the per-tick
primitive of the reference loop: it advances the clock one tick and
prepares every component, which the event scheduler does in batches
instead.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.testbed.appserver.thread_pool import ThreadPool
from repro.testbed.appserver.tomcat import TomcatServer
from repro.testbed.clock import TICK_SECONDS, SimulationClock
from repro.testbed.config import TestbedConfig
from repro.testbed.database.mysql import MySQLServer
from repro.testbed.errors import ServerCrash
from repro.testbed.faults.injector import FaultInjector
from repro.testbed.jvm.heap import GenerationalHeap
from repro.testbed.monitoring.collector import MetricsCollector, MonitoringSample, Trace
from repro.testbed.osmodel.system import OperatingSystem
from repro.testbed.tpcw.workload import WorkloadGenerator, WorkloadMix
from repro.telemetry import runtime as telemetry_runtime

__all__ = ["ScheduledAction", "TestbedSimulation"]


@dataclass
class ScheduledAction:
    """An action applied to the running simulation at a fixed time.

    The callable receives the :class:`TestbedSimulation`; typical uses are
    ``lambda sim: injector.set_rate(15)`` for the rate changes of Experiment
    4.2 or workload changes in ablation scenarios.  ``label`` is recorded in
    the trace metadata so experiment phases stay identifiable downstream.
    """

    time_seconds: float
    action: Callable[["TestbedSimulation"], None]
    label: str = ""


class TestbedSimulation:
    """One runnable instance of the simulated three-tier testbed.

    Parameters
    ----------
    config:
        Testbed configuration (heap geometry, thread limits, cadences).
    workload_ebs:
        Number of concurrent TPC-W emulated browsers.
    injectors:
        Aging-fault injectors to attach to the application server.
    schedule:
        Scheduled mid-run actions (rate changes, workload changes).
    mix:
        TPC-W traffic mix (the paper uses the shopping mix).
    seed:
        Master seed; the workload generator derives its own stream from it so
        two simulations with the same seed produce identical traces.
    """

    #: Tell pytest not to collect this class (its name matches ``Test*``).
    __test__ = False

    def __init__(
        self,
        config: TestbedConfig | None = None,
        workload_ebs: int = 100,
        injectors: Iterable[FaultInjector] = (),
        schedule: Sequence[ScheduledAction] = (),
        mix: WorkloadMix = WorkloadMix.SHOPPING,
        seed: int = 0,
        telemetry_label: str = "testbed",
    ) -> None:
        self.config = config if config is not None else TestbedConfig()
        self.seed = seed
        self._rng = random.Random(seed)
        # Ambient telemetry: captured once here so every instrumentation
        # point below is a single ``is None`` check when disabled.  The label
        # is a stable run identity ("testbed", or "n3i2" for a cluster node's
        # incarnation) -- part of the deterministic trace, so it must never
        # encode construction order.
        self.telemetry = telemetry_runtime.active()
        self.telemetry_label = telemetry_label
        self._telemetry_finished = False

        self.clock = SimulationClock()
        self.heap = GenerationalHeap(
            young_capacity_mb=self.config.young_capacity_mb,
            old_initial_mb=self.config.old_initial_mb,
            old_max_mb=self.config.max_old_mb,
            perm_mb=self.config.perm_mb,
            old_resize_step_mb=self.config.old_resize_step_mb,
            promotion_fraction=self.config.promotion_fraction,
            full_gc_release_fraction=self.config.full_gc_release_fraction,
        )
        self.thread_pool = ThreadPool(
            base_threads=self.config.base_worker_threads,
            max_threads=self.config.max_threads,
        )
        self.database = MySQLServer(memory_mb=self.config.mysql_memory_mb)
        self.server = TomcatServer(self.config, self.heap, self.thread_pool, self.database)
        self.operating_system = OperatingSystem(self.config)
        self.workload = WorkloadGenerator(
            num_browsers=workload_ebs,
            mean_think_time_s=self.config.mean_think_time_s,
            mix=mix,
            seed=self._rng.randrange(2**31),
        )
        self.collector = MetricsCollector(self.config.monitoring_interval_s)

        self.injectors: list[FaultInjector] = list(injectors)
        for injector in self.injectors:
            injector.attach(self.server)
        self._schedule = sorted(schedule, key=lambda item: item.time_seconds)
        self._next_scheduled = 0
        self._finished = False
        self._trace: Trace | None = None

    # ------------------------------------------------------------------- run

    def run(self, max_seconds: float = 4 * 3600.0) -> Trace:
        """Run until the server crashes or ``max_seconds`` elapse.

        Returns the trace of monitoring samples; the trace's ``crashed`` flag
        and ``crash_time_seconds`` record how the run ended.  A simulation
        object is single-use: call :meth:`run` once.  The run rides the
        shared event-driven scheduler of :mod:`repro.testbed.events`.
        """
        from repro.testbed.events import run_event_driven

        return run_event_driven(self, max_seconds)

    # --------------------------------------------------- step-wise (cluster)

    @property
    def crashed(self) -> bool:
        """Whether the (started) simulation has recorded its crash."""
        return self._trace is not None and self._trace.crashed

    @property
    def trace(self) -> Trace:
        """The live trace of a started simulation."""
        if self._trace is None:
            raise RuntimeError("the simulation has not been started; call begin() or run()")
        return self._trace

    def begin(self) -> Trace:
        """Mark the simulation as started and return its (live) trace.

        External drivers call this once, then advance the simulation with
        the serving kernel, :meth:`drive_injectors`, :meth:`end_tick` and the
        tick primitives; :meth:`run` starts its scheduler with it too.
        """
        if self._finished:
            raise RuntimeError("this simulation has already been run; create a new one")
        self._finished = True
        self._trace = Trace(
            workload_ebs=self.workload.num_browsers,
            metadata={
                "seed": self.seed,
                "injectors": [injector.describe() for injector in self.injectors],
                "schedule": [item.label or f"action@{item.time_seconds:.0f}s" for item in self._schedule],
                "mix": self.workload.mix.value,
            },
        )
        if self.telemetry is not None:
            self.telemetry.event(
                "run_begin",
                self.clock.ticks,
                run=self.telemetry_label,
                data={"seed": self.seed, "ebs": self.workload.num_browsers},
            )
        return self._trace

    def begin_tick(self) -> float:
        """Advance the clock one tick and prepare every component; return now."""
        now = self.clock.advance()
        self.heap.set_time(now)
        self.apply_scheduled_actions(now)
        self.server.begin_tick()
        self.database.begin_tick()
        return now

    def cluster_mark_tick(self, idle_gap: int, workload_ebs: int):
        """Settle, begin and close a request-free monitoring-mark tick, fused.

        Equivalent to replaying ``idle_gap`` untouched ticks, then
        ``begin_tick()`` and ``end_tick(now, 0, workload_ebs)``: the
        footprint and busy-thread count cannot change across a request-free
        span, so one batched OS update covers the idle gap and the mark tick
        itself (the three OS state variables are mutually independent, so
        the merge is bit-for-bit exact).  Returns the monitoring sample, or
        ``None`` when the wake-up was scheduled conservatively early.
        """
        clock = self.clock
        if idle_gap and self._next_scheduled < len(self._schedule):
            # Scheduled actions are first-class wake events in the shared
            # scheduler, so a correctly driven engine never asks to skip one;
            # this guard catches drivers that violate that contract.
            if self._schedule[self._next_scheduled].time_seconds <= clock.ticks + idle_gap:
                raise RuntimeError("cannot fast-forward over a pending scheduled action")
        self.operating_system.update_span(
            TICK_SECONDS,
            idle_gap + 1,
            tomcat_footprint_mb=self.server.memory_footprint_mb(),
            busy_threads=self.thread_pool.busy_workers + 1,
        )
        now = clock.advance(idle_gap + 1)
        self.heap.set_time(now)
        if self._next_scheduled < len(self._schedule):
            self.apply_scheduled_actions(now)
        self.server.begin_tick()
        self.database.begin_tick()
        if not self.collector.due(now):
            return None
        sample = self.collector.collect(
            now,
            server=self.server,
            operating_system=self.operating_system,
            database=self.database,
            workload_ebs=workload_ebs,
        )
        self.trace.samples.append(sample)
        if self.telemetry is not None:
            self._telemetry_mark(sample)
        return sample

    def drive_injectors(self, now: float) -> None:
        """Run the attached fault injectors (may raise ``ServerCrash``)."""
        for injector in self.injectors:
            injector.on_tick(now)

    def end_tick(
        self,
        now: float,
        requests_completed: int,
        workload_ebs: int | None = None,
    ) -> MonitoringSample | None:
        """Update the OS view and take a monitoring sample when one is due.

        ``workload_ebs`` overrides the emulated-browser count recorded in the
        sample; a cluster node passes its currently assigned share of the
        fleet-level workload, a stand-alone run records its own generator's
        population.
        """
        self.operating_system.update(
            TICK_SECONDS,
            tomcat_footprint_mb=self.server.memory_footprint_mb(),
            busy_threads=self.thread_pool.busy_workers + 1,
            requests_completed=requests_completed,
        )
        if not self.collector.due(now):
            return None
        sample = self.collector.collect(
            now,
            server=self.server,
            operating_system=self.operating_system,
            database=self.database,
            workload_ebs=workload_ebs if workload_ebs is not None else self.workload.num_browsers,
        )
        self.trace.samples.append(sample)
        if self.telemetry is not None:
            self._telemetry_mark(sample)
        return sample

    def record_crash(self, now: float, crash: ServerCrash) -> None:
        """Record the end-of-run crash information on the trace."""
        trace = self.trace
        trace.crashed = True
        trace.crash_time_seconds = now
        trace.crash_resource = crash.resource
        trace.metadata["crash_message"] = str(crash)
        if self.telemetry is not None:
            # Stamp with the tick derived from the crash *time*, not the live
            # clock: the event engine records a crash before replaying the
            # final tick, so its clock can lag the reference's by one here
            # even though the crash time itself is bit-identical.
            self.telemetry.event(
                "crash",
                int(round(now)),
                run=self.telemetry_label,
                data={"time": now, "resource": crash.resource},
            )
            self.telemetry.count("crashes")

    # ------------------------------------------------------------- telemetry

    def _telemetry_mark(self, sample: MonitoringSample) -> None:
        """Record one monitoring mark on the sim channel (telemetry enabled).

        The tick is derived from the sample's timestamp (bit-identical across
        engines by the golden parity contract) rather than the live clock, so
        the event is engine-invariant by construction.
        """
        self.telemetry.event(
            "mark",
            int(round(sample.time_seconds)),
            run=self.telemetry_label,
            data={
                "time": sample.time_seconds,
                "throughput_rps": sample.throughput_rps,
                "footprint_mb": sample.tomcat_memory_used_mb,
                "threads": sample.num_threads,
                "load": sample.system_load,
            },
        )
        self.telemetry.count("marks")

    def _telemetry_finish(self) -> None:
        """Flush end-of-run totals (requests, GC) to the sim channel, once.

        Called at the end of a run and -- for cluster incarnations -- by the
        node when an incarnation ends or the fleet run completes.
        """
        telemetry = self.telemetry
        if telemetry is None or self._telemetry_finished or self._trace is None:
            return
        self._telemetry_finished = True
        telemetry.count("requests_served", self.server.total_requests)
        collector = self.heap.collector
        telemetry.count("gc_minor", collector.minor_collections)
        telemetry.count("gc_full", collector.full_collections)
        telemetry.count("heap_resizes", collector.resizes)
        trace = self._trace
        end_tick = (
            int(round(trace.crash_time_seconds))
            if trace.crashed and trace.crash_time_seconds is not None
            else self.clock.ticks
        )
        telemetry.event(
            "run_end",
            end_tick,
            run=self.telemetry_label,
            data={
                "crashed": trace.crashed,
                "samples": len(trace.samples),
                "requests": self.server.total_requests,
                "gc_minor": collector.minor_collections,
                "gc_full": collector.full_collections,
            },
        )

    # ------------------------------------------------------ scheduled actions

    @property
    def has_pending_actions(self) -> bool:
        """Whether any scheduled action has not been applied yet."""
        return self._next_scheduled < len(self._schedule)

    def pending_action_time(self) -> float | None:
        """Time of the next unapplied scheduled action (``None`` when done).

        The event-driven scheduler turns this into a wake event, so mid-run
        changes apply on exactly the tick a tick-by-tick loop would apply
        them.
        """
        if self._next_scheduled >= len(self._schedule):
            return None
        return self._schedule[self._next_scheduled].time_seconds

    def apply_scheduled_actions(self, now: float) -> None:
        """Apply every scheduled action due at or before ``now``, in order."""
        while self._next_scheduled < len(self._schedule) and self._schedule[self._next_scheduled].time_seconds <= now:
            self._schedule[self._next_scheduled].action(self)
            self._next_scheduled += 1
