"""The shared event-driven simulation core.

One scheduler and one serving kernel serve both exact engines.  The
machinery in this module was born inside the event-driven cluster engine
(``repro.cluster``), where it fast-forwarded whole fleets from interesting
event to interesting event; it was promoted here so that *stand-alone*
testbed runs -- the paper's experiments 4.1-4.4 and every cluster training
run -- ride the same fast path.

Three layers live here:

``TickSettlement``
    The exact batched fast-forward of one :class:`TestbedSimulation`.  It
    owns the deferred per-tick state the per-second reference engine would
    have produced -- the OS-settlement cursor, the open "lite begun" tick
    and the recorded ``(tick, requests, footprint, busy)`` segments -- and
    replays it bit-for-bit on demand.  The cluster's
    :class:`~repro.cluster.node.ClusterNode` delegates all of its settlement
    to this class (adding only lifecycle on top), and the single-server
    event loop below drives one instance directly.

``serving_kernel``
    The one implementation of the request-serving semantics: a closure,
    built once per simulation incarnation, that serves one request on the
    open tick and returns its response time.  It is a fused replay of the
    per-second reference path (the thread pool's concurrency update, the
    servlet invocation and its listeners, the transient heap allocation,
    the database queries and the contention-inflated response time) with
    identical operations in identical order, and it writes every component
    field through on each request, so anything that reads the components
    mid-tick -- least-connections routing, a crash and its reroute, the
    end-of-incarnation telemetry -- sees exactly the reference state.  Both
    exact loops call it: ``run_event_driven`` below and the cluster
    engine's routing loop.

``run_event_driven``
    The event-driven replacement for ``TestbedSimulation.run``'s per-second
    loop.  Browser request arrivals are scheduled on a heap from each
    browser's think time, monitoring marks / injector firings / scheduled
    actions are wake-up events, and each request is drawn (``random.choices``
    replayed as one ``bisect``), served by the kernel and followed by the
    browser's inline think-time draw, bit-for-bit equal to the reference.

Exactness contract (shared with the cluster engine, see
``repro.testbed.timeline``):

* the tick is one second, so every countdown of the reference engine's
  per-tick float subtraction resolves to its exact tick in one ``ceil``;
* the clock counts integer ticks, so batched advances are exact;
* deferred OS updates replay the per-tick recurrence from recorded
  segments -- nothing can touch a simulation's components between its own
  events, so the captured ``(footprint, busy)`` pairs are exactly what the
  reference engine would have read each tick;
* scheduled actions are first-class wake events: the engine never
  fast-forwards across a pending :class:`ScheduledAction`, it wakes on the
  exact tick the reference engine would apply it.

The single-server loop keeps the simulation clock and the heap's GC-event
timestamps current at every event tick (unlike cluster nodes, whose GC
stamps may lag within a monitoring interval), so even the GC event log is
bit-for-bit identical to the per-second reference.

Scheduled actions may mutate injectors and the workload generator
(rate changes, ``set_num_browsers``, ``set_mix``); the engine re-arms its
wake events and re-syncs its workload caches after every action tick.
Actions must not replace whole components (server, heap, collector).
"""

from __future__ import annotations

import typing
from bisect import bisect
from heapq import heappop, heappush
from math import ceil as _ceil
from math import log as _log
from typing import Callable

from repro.testbed.clock import TICK_SECONDS
from repro.testbed.errors import ServerCrash
from repro.testbed.timeline import first_tick_at_or_after, ticks_until_nonpositive
from repro.testbed.tpcw.interactions import INTERACTIONS
from repro.telemetry.hub import ENGINE as _ENGINE_CHANNEL

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.testbed.appserver.tomcat import TomcatServer
    from repro.testbed.engine import TestbedSimulation
    from repro.testbed.monitoring.collector import MonitoringSample, Trace

__all__ = ["TickSettlement", "run_event_driven", "serving_kernel"]

#: Event kinds of the single-server scheduler, in within-tick processing
#: order: scheduled actions apply at the tick's begin (like the reference
#: ``begin_tick``), injectors drive after the tick's requests, and the
#: monitoring mark closes the tick.
_ACTION, _MARK, _INJECTOR = 0, 1, 2


class TickSettlement:
    """Deferred, exactly-replayable per-tick settlement of one simulation.

    Reproduces the per-second reference semantics (``begin_tick`` /
    ``end_tick`` every tick) while touching the simulation only at
    "interesting" ticks:

    * serving a request performs a *lite begin* -- only the per-tick
      counters reset; the clock and the OS model settle later, and the
      tick's request count is the server's own per-tick counter;
    * each served tick is recorded as a ``(tick, requests, footprint,
      busy)`` segment, so the deferred per-tick OS updates replay with
      exactly the inputs the reference engine would have used (nothing can
      touch a simulation's components between its own events);
    * monitoring marks settle eagerly, with a fused one-call fast path for
      request-free spans.

    Parameters
    ----------
    simulation:
        The simulation to settle.  One settlement instance drives one
        simulation for its whole life (cluster nodes create a fresh one per
        incarnation).
    base_tick:
        Scheduler tick at which the simulation's own clock was zero (0 for
        stand-alone runs; the rejoin tick for cluster-node incarnations).
    """

    __slots__ = (
        "sim",
        "base_tick",
        "_os_tick",
        "_open_tick",
        "_boundary",
        "_segments",
        "_telemetry",
        "mark_interval_ticks",
    )

    def __init__(self, simulation: "TestbedSimulation", base_tick: int = 0) -> None:
        self.sim = simulation
        self.base_tick = base_tick
        #: Scheduler tick through which deferred per-tick OS updates settled.
        self._os_tick = base_tick
        #: Lite-begun tick awaiting settlement (its served requests are the
        #: server's ``_concurrent_this_tick``, which only its begin resets).
        self._open_tick: int | None = None
        #: (footprint, busy) before the first lite tick after a settlement.
        self._boundary: tuple[float, int] | None = None
        #: Closed lite ticks: (tick, requests, footprint_after, busy_after).
        self._segments: list[tuple[int, int, float, int]] = []
        #: Engine-channel telemetry (settlement batch sizes); None = disabled.
        self._telemetry = simulation.telemetry
        #: Monitoring cadence in whole ticks.
        self.mark_interval_ticks = first_tick_at_or_after(simulation.config.monitoring_interval_s)

    # ------------------------------------------------------------------ clock

    def clock_tick(self) -> int:
        """Scheduler tick the simulation's own clock currently sits at."""
        return self.base_tick + self.sim.clock.ticks

    def advance_clock_to(self, j: int) -> None:
        """Advance the simulation clock to tick ``j``."""
        sim = self.sim
        ticks = j - self.base_tick - sim.clock.ticks
        if ticks > 0:
            sim.clock.advance(ticks)

    # ------------------------------------------------------------ lite begins

    def serve_begin(self, j: int) -> None:
        """Lite begin of tick ``j`` ahead of serving a routed request.

        Resets the per-tick server counters (the only state a request can
        observe besides the components themselves) and records the
        pre-serve footprint when a deferred idle gap precedes this tick;
        clock and OS settlement happen at the next full sync.
        """
        if self._open_tick == j:
            return
        sim = self.sim
        self.close_open()
        if not self._segments and self._boundary is None and j - 1 > self._os_tick:
            self._boundary = (sim.server.memory_footprint_mb(), sim.thread_pool.busy_workers + 1)
        sim.server.begin_tick()
        sim.database.begin_tick()
        self._open_tick = j

    def close_open(self) -> None:
        """Snapshot and close the open lite tick into the segment list."""
        open_tick = self._open_tick
        if open_tick is None:
            return
        sim = self.sim
        self._segments.append(
            (
                open_tick,
                sim.server._concurrent_this_tick,
                sim.server.memory_footprint_mb(),
                sim.thread_pool.busy_workers + 1,
            )
        )
        self._open_tick = None

    def discard_open(self) -> None:
        """Drop the open lite tick without settling it (crash path).

        The crash tick's own end-of-tick update dies with the run -- the
        reference engine never runs ``end_tick`` for a crashed tick.
        """
        self._open_tick = None

    # ------------------------------------------------------------- settlement

    def replay_os_to(self, last_tick: int) -> tuple[float, int] | None:
        """Apply the deferred per-tick OS updates through ``last_tick``.

        Replays every recorded segment with its captured footprint and
        busy-thread count, the idle gaps between them with the neighbouring
        segment's state (nothing changes a simulation's components between
        its own events), and the trailing idle run.  Bit-for-bit equal to
        the reference engine's per-tick ``OperatingSystem.update`` calls.

        Returns the last (footprint, busy) pair the replay used, or ``None``
        when it never needed one -- callers whose tick cannot have mutated
        the components since may reuse it instead of recomputing.
        """
        sim = self.sim
        os_model = sim.operating_system
        cursor = self._os_tick
        assert last_tick >= cursor, "OS settlement must never move backwards"
        previous = self._boundary
        segments = self._segments
        if self._telemetry is not None and segments:
            self._telemetry.observe(
                "event.settle_segments", len(segments), channel=_ENGINE_CHANNEL
            )
        if segments:
            for seg_tick, requests, footprint, busy in segments:
                gap = seg_tick - cursor - 1
                if gap > 0:
                    os_model.update_span(TICK_SECONDS, gap, previous[0], previous[1], 0)
                os_model.update_span(TICK_SECONDS, 1, footprint, busy, requests)
                cursor = seg_tick
                previous = (footprint, busy)
            segments.clear()
        self._boundary = None
        tail = last_tick - cursor
        if tail > 0:
            if previous is None:
                previous = (sim.server.memory_footprint_mb(), sim.thread_pool.busy_workers + 1)
            os_model.update_span(TICK_SECONDS, tail, previous[0], previous[1], 0)
        self._os_tick = last_tick
        return previous

    def settle_open(self) -> None:
        """Eagerly close a fully synchronised open tick.

        Called after an injector drive or action tick when no monitoring
        mark is due, so the simulation returns to the settled state and its
        next mark takes the fused fast path.  Requires the state a full
        :meth:`sync_begin` leaves behind: clock at the open tick, OS settled
        through the tick before, no recorded segments.
        """
        open_tick = self._open_tick
        if open_tick is None:
            return
        sim = self.sim
        assert not self._segments and self._os_tick == open_tick - 1
        sim.operating_system.update_span(
            TICK_SECONDS,
            1,
            tomcat_footprint_mb=sim.server.memory_footprint_mb(),
            busy_threads=sim.thread_pool.busy_workers + 1,
            requests_first_tick=sim.server._concurrent_this_tick,
        )
        self._os_tick = open_tick
        self._open_tick = None

    def sync_begin(self, j: int) -> None:
        """Full begin of tick ``j``: clock, OS and actions current.

        Needed by observers of the simulation clock (injector drives, the
        uptime-reading cluster coordinator) and by scheduled actions, which
        the reference engine applies inside ``begin_tick``; equivalent to
        the reference loop having run every tick through ``j``.
        """
        sim = self.sim
        if self._open_tick == j:
            if self.clock_tick() < j:
                self.replay_os_to(j - 1)
                self.advance_clock_to(j)
                sim.heap.set_time(sim.clock.now)
            return
        if self._os_tick >= j:
            # Tick j was already begun AND settled eagerly (a monitoring
            # mark): there is nothing left to synchronise, and re-opening it
            # would double-apply its end-of-tick OS update.
            return
        self.close_open()
        self.replay_os_to(j - 1)
        self.advance_clock_to(j)
        now = sim.clock.now
        sim.heap.set_time(now)
        if sim.has_pending_actions:
            sim.apply_scheduled_actions(now)
        sim.server.begin_tick()
        sim.database.begin_tick()
        self._open_tick = j

    def settle_through(self, j: int) -> None:
        """Settle all lazy state through the *end* of tick ``j``.

        Terminal settlement: used before a cluster node goes down (drain
        expiry) and at the end of a run.  Every tick through ``j`` ends up
        fully processed, exactly as the reference engine leaves them.
        """
        self.close_open()
        self.replay_os_to(j)
        self.advance_clock_to(j)

    # ------------------------------------------------------------------ wakes

    def next_mark_tick(self) -> int:
        """Scheduler tick of the next monitoring mark (never late).

        The engines re-arm a wake whose :meth:`mark` finds no sample due.
        """
        local = first_tick_at_or_after(self.sim.collector.next_due_time())
        return self.base_tick + max(local, 1)

    def next_injector_wake(self, floor_tick: int) -> int | None:
        """Earliest scheduler tick at which the injectors need driving.

        Injectors whose ``on_tick`` never acts contribute no wake; injectors
        without a declared schedule conservatively wake every tick (the
        base-class horizon is "now").  The engines drive *all* injectors at
        a wake -- exactly what the reference loops do every tick -- so one
        wake (the minimum horizon) suffices.
        """
        sim = self.sim
        local_now = sim.clock.now
        earliest: int | None = None
        for injector in sim.injectors:
            horizon = injector.tick_event_horizon(local_now)
            if horizon is None:
                continue
            wake = max(self.base_tick + first_tick_at_or_after(horizon), floor_tick, 1)
            if earliest is None or wake < earliest:
                earliest = wake
        return earliest

    # ------------------------------------------------------------------ marks

    def mark(self, j: int, workload_ebs: int) -> "MonitoringSample | None":
        """Take tick ``j``'s monitoring mark (eager end-of-tick close).

        Untouched simulations use the fused settle/begin/sample fast path;
        simulations with deferred lite state settle first and close through
        the ordinary ``end_tick``.  Returns ``None`` when the wake-up was
        scheduled conservatively early (no sample due yet).
        """
        sim = self.sim
        if self._open_tick is None and not self._segments and self._os_tick == self.clock_tick():
            sample = sim.cluster_mark_tick(j - self._os_tick - 1, workload_ebs)
            self._os_tick = j
            return sample
        if self._open_tick == j:
            # The simulation served this tick: settle the backlog, catch the
            # clock up if needed, then close eagerly through end_tick.
            self.replay_os_to(j - 1)
            if self.clock_tick() < j:
                self.advance_clock_to(j)
                sim.heap.set_time(sim.clock.now)
            sample = sim.end_tick(sim.clock.now, sim.server._concurrent_this_tick, workload_ebs)
            self._open_tick = None
            self._os_tick = j
            return sample
        # Untouched at j but carrying deferred lite state: settle, begin and
        # close in one pass, reusing the replay's last-known footprint (the
        # components cannot have changed since it was recorded).
        self.close_open()
        known = self.replay_os_to(j - 1)
        self.advance_clock_to(j)
        now = sim.clock.now
        sim.heap.set_time(now)
        sim.server.begin_tick()
        sim.database.begin_tick()
        if known is None:
            known = (sim.server.memory_footprint_mb(), sim.thread_pool.busy_workers + 1)
        sim.operating_system.update_span(TICK_SECONDS, 1, known[0], known[1], 0)
        self._os_tick = j
        collector = sim.collector
        if not collector.due(now):
            return None
        sample = collector.collect(
            now,
            server=sim.server,
            operating_system=sim.operating_system,
            database=sim.database,
            workload_ebs=workload_ebs,
        )
        sim.trace.samples.append(sample)
        if sim.telemetry is not None:
            sim._telemetry_mark(sample)
        return sample


# --------------------------------------------------------------------- kernel


def serving_kernel(server: "TomcatServer") -> Callable[[int], float]:
    """The request-serving kernel of ``server``: ``serve(index) -> seconds``.

    ``serve(i)`` serves one request for ``INTERACTIONS[i]`` (the order
    :meth:`WorkloadGenerator.interaction_chooser` draws its indices in) on
    the open tick -- the caller has begun it, with ``server.begin_tick`` and
    ``database.begin_tick`` or a settlement's lite begin -- and returns the
    response time.  It replays, in the same order and with the same float
    operations, the per-second reference path the test suite keeps in its
    oracle: ``ThreadPool.set_concurrency``, ``Servlet.invoke`` with its
    listeners, the heap's transient allocation (its single-chunk case
    inline), ``MySQLServer.execute_queries``, the contention factor and the
    server's request counters.  Every component field is written through
    before the call returns, so mid-tick readers (least-connections routing,
    a crash and its reroute, end-of-incarnation telemetry) see the reference
    state.  A listener or the allocation may raise
    :class:`~repro.testbed.errors.ServerCrash`, leaving the components
    exactly as the reference path leaves them.

    Each interaction's servlet, transient megabytes, base service time and
    query count, and the heap, pool and database limits, are bound here, so
    build one kernel per simulation incarnation.  The products are computed
    from the same operands as the reference, so binding them is bit-for-bit
    neutral.
    """
    config = server.config
    heap = server.heap
    pool = server.thread_pool
    db = server.database
    servlets = server.servlets
    prepped = [
        (
            servlets.get(interaction.name),
            config.request_memory_mb * interaction.memory_factor,
            config.base_service_time_s * interaction.service_demand_factor,
            interaction.db_queries,
        )
        for interaction in INTERACTIONS
    ]
    young_cap = heap.young_capacity_mb
    old_max = heap.old_max_mb
    headroom_denom = old_max if old_max >= 1.0 else 1.0  # max(old_max_mb, 1.0)
    cores4 = config.cpu_cores * 4.0
    base_workers = pool.base_threads
    max_threads = pool.max_threads
    max_conn = db.max_connections
    base_query = db.base_query_time_s

    def serve(index: int) -> float:
        servlet, transient_mb, service_time, queries = prepped[index]
        # -- ThreadPool.set_concurrency
        concurrent = server._concurrent_this_tick + 1
        server._concurrent_this_tick = concurrent
        avail = max_threads - pool._leaked
        busy = concurrent if concurrent < avail else avail
        pool._busy_workers = busy
        needed = busy if busy > base_workers else base_workers
        peak = pool._peak_workers
        if needed > peak:
            peak = needed if needed < avail else avail
            pool._peak_workers = peak
        queued = concurrent > peak
        # -- Servlet.invoke (listeners may inject leaks and crash)
        servlet.invocations += 1
        listeners = servlet._listeners
        if listeners:
            for listener in listeners:
                listener(servlet)
        # -- GenerationalHeap.allocate_transient, single-chunk case inline
        young = heap._young_used
        if 0.0 < transient_mb < young_cap - young:
            young += transient_mb
            heap._young_used = young
            if young >= young_cap:
                heap._minor_gc()
        else:
            heap.allocate_transient(transient_mb)
        # -- MySQLServer.execute_queries
        if queries:
            active = db._active_connections
            active = active + 1 if active < max_conn else max_conn
            db._active_connections = active
            db.total_queries += queries
            db_time = queries * base_query * (1.0 + active / max_conn)
        else:
            db_time = 0.0
        # -- the contention factor (CPU, plus GC pressure near a full Old
        #    zone) and the response time; a request that found every worker
        #    busy waits about one more service quantum
        headroom = (
            old_max - (heap._old_leaked + heap._old_retained + heap._old_floating)
        ) / headroom_denom
        if headroom < 0.10:
            factor = 1.0 + concurrent / cores4 + (0.10 - headroom) * 30.0
        else:
            factor = 1.0 + concurrent / cores4 + 0.0
        response_time = service_time * factor + db_time
        if queued:
            response_time = response_time + service_time
            server.queued_since_sample += 1
        server.total_requests += 1
        server.requests_since_sample += 1
        server.response_time_since_sample += response_time
        return response_time

    return serve


# --------------------------------------------------------------------- runner


def run_event_driven(sim: "TestbedSimulation", max_seconds: float) -> "Trace":
    """Run ``sim`` to crash or ``max_seconds`` on the event-driven scheduler.

    Bit-for-bit identical to the tick-everything reference loop on every
    seeded scenario: same monitoring samples, same crash time, same GC event
    log, same component state (the golden tests in
    ``tests/testbed/test_event_engine_golden.py`` pin all of it against the
    loop kept in ``tests/testbed/oracle.py``).
    """
    if max_seconds <= 0:
        raise ValueError("max_seconds must be positive")
    trace = sim.begin()
    config = sim.config
    final_tick = first_tick_at_or_after(max_seconds)
    settle = TickSettlement(sim)

    clock = sim.clock
    workload = sim.workload
    server = sim.server
    heap_ = sim.heap
    pool = sim.thread_pool
    db = sim.database

    serve = serving_kernel(server)
    cum_weights, weights_total, weights_hi = workload.interaction_chooser()
    mean_think = workload.mean_think_time_s
    think_lambd = 1.0 / mean_think  # expovariate's lambd, hoisted
    think_cap = 10.0 * mean_think  # browser._MAX_THINK_FACTOR * mean

    # Wake events: (tick, kind) heap.
    events: list[tuple[int, int]] = []
    heappush(events, (settle.next_mark_tick(), _MARK))
    wake = settle.next_injector_wake(1)
    if wake is not None:
        heappush(events, (wake, _INJECTOR))
    action_time = sim.pending_action_time()
    if action_time is not None:
        heappush(events, (max(first_tick_at_or_after(action_time), 1), _ACTION))

    # Browser fires: (tick, browser_id, index, browser, rng.random) heap.
    # The browser_id tie-break reproduces the reference engine's in-tick
    # ordering (the population list is always ascending in browser_id)
    # without ever comparing browser objects, the stored object lets stale
    # entries -- left behind by a mid-run ``set_num_browsers`` -- be skipped
    # by identity, and the pre-bound ``random`` shaves the per-request
    # attribute walk off the browser's private stream.
    browsers = workload.browser_population()
    nbrowsers = len(browsers)
    fires = [
        (ticks_until_nonpositive(b._remaining_think_s), b.browser_id, idx, b, b._rng.random)
        for idx, b in enumerate(browsers)
    ]
    fires.sort()

    # Hot-loop local bindings (globals and bound methods resolved once).
    push = heappush
    pop = heappop
    pick = bisect
    ceil_ = _ceil
    log_ = _log
    segments = settle._segments
    stack_mb = config.thread_stack_mb
    jvm_mb = config.jvm_overhead_mb
    perm_mb = heap_.perm_used_mb

    # Engine-channel telemetry: local accumulators flushed once at the end,
    # so the disabled path costs one predicate test per event tick.
    tel = sim.telemetry
    previous_tick = 0
    n_event_ticks = n_action_wakes = n_mark_wakes = n_injector_wakes = n_request_ticks = 0

    current = 0
    while current < final_tick:
        upcoming = fires[0][0] if fires else None
        if events and (upcoming is None or events[0][0] < upcoming):
            upcoming = events[0][0]
        if upcoming is None or upcoming > final_tick:
            break
        current = upcoming

        action_due = mark_due = injector_due = False
        while events and events[0][0] == current:
            kind = heappop(events)[1]
            if kind == _ACTION:
                action_due = True
            elif kind == _MARK:
                mark_due = True
            else:
                injector_due = True

        if tel is not None:
            n_event_ticks += 1
            n_action_wakes += action_due
            n_mark_wakes += mark_due
            n_injector_wakes += injector_due
            tel.observe("event.fast_forward_ticks", current - previous_tick, channel=_ENGINE_CHANNEL)
            previous_tick = current

        if action_due or injector_due:
            # Full begin: clock, OS backlog, scheduled actions (exactly the
            # reference begin_tick order: actions apply after the clock and
            # heap time move, before the per-tick counter resets).
            settle.sync_begin(current)
            if action_due:
                action_time = sim.pending_action_time()
                if action_time is not None:
                    heappush(
                        events, (max(first_tick_at_or_after(action_time), current + 1), _ACTION)
                    )
                # Actions may have changed rates, the mix or the population:
                # re-sync the workload caches, schedule any fresh browsers
                # (first ticked this very tick, like the reference), and
                # re-arm the injector wake from the new horizons.
                browsers = workload.browser_population()
                nbrowsers = len(browsers)
                cum_weights, weights_total, weights_hi = workload.interaction_chooser()
                live_ids = {entry[1] for entry in fires}
                for idx, browser in enumerate(browsers):
                    if browser.browser_id not in live_ids:
                        first = current - 1 + ticks_until_nonpositive(browser._remaining_think_s)
                        push(
                            fires,
                            (max(first, current), browser.browser_id, idx, browser, browser._rng.random),
                        )
                wake = settle.next_injector_wake(current)
                if wake is not None:
                    if wake == current:
                        injector_due = True
                    else:
                        heappush(events, (wake, _INJECTOR))
            tick_begun = True
        else:
            tick_begun = False

        # ------------------------------------------------- this tick's requests
        if fires and fires[0][0] == current:
            if tel is not None:
                n_request_ticks += 1
            if not tick_begun:
                # Lite begin plus eager clock, inlined from TickSettlement.
                # serve_begin / advance_clock_to and SimulationClock /
                # GenerationalHeap.set_time (the OS settles lazily from the
                # recorded segment, but GC events keep exact timestamps).
                open_tick = settle._open_tick
                if open_tick is not None:
                    # close_open with the memory_footprint_mb sum inlined
                    segments.append(
                        (
                            open_tick,
                            server._concurrent_this_tick,
                            heap_._young_used
                            + (heap_._old_leaked + heap_._old_retained + heap_._old_floating)
                            + perm_mb
                            + (pool._peak_workers + pool._leaked) * stack_mb
                            + jvm_mb,
                            pool._busy_workers + 1,
                        )
                    )
                    settle._open_tick = None
                elif not segments and settle._boundary is None and current - 1 > settle._os_tick:
                    settle._boundary = (
                        server.memory_footprint_mb(),
                        pool._busy_workers + 1,
                    )
                server._concurrent_this_tick = 0  # server.begin_tick
                db._active_connections = 0  # database.begin_tick
                settle._open_tick = current
                clock._ticks = current  # advance_clock_to, one batched advance
                heap_._now = current * TICK_SECONDS  # heap.set_time(clock.now)
            # Each request replays random.choices as one bisect, is served by
            # the kernel, and its browser completes eagerly and rethinks: the
            # think draw replays Random.expovariate on the same stream, so
            # every RNG stream stays bit-for-bit equal to the reference.
            try:
                while fires and fires[0][0] == current:
                    entry = pop(fires)
                    idx = entry[2]
                    browser = entry[3]
                    if idx >= nbrowsers or browsers[idx] is not browser:
                        continue  # replaced by a mid-run population change
                    rand = entry[4]
                    response_time = serve(pick(cum_weights, rand() * weights_total, 0, weights_hi))
                    browser.requests_issued += 1
                    browser.requests_completed += 1
                    think = -log_(1.0 - rand()) / think_lambd
                    if think > think_cap:
                        think = think_cap
                    browser._remaining_think_s = think
                    # The response holds the browser for at least one tick
                    # (the reference notices a completed response only on
                    # the next tick); the non-negative think countdown then
                    # ends on its ceiling.
                    next_fire = (
                        current
                        + (1 if response_time <= 1.0 else ceil_(response_time))
                        + ceil_(think)
                    )
                    push(fires, (next_fire, entry[1], idx, browser, rand))
            except ServerCrash as crash:
                settle.discard_open()
                settle.replay_os_to(current - 1)
                sim.record_crash(clock.now, crash)
                break

        # ------------------------------------------------------- injector drives
        if injector_due:
            try:
                sim.drive_injectors(clock.now)
            except ServerCrash as crash:
                settle.discard_open()
                settle.replay_os_to(current - 1)
                sim.record_crash(clock.now, crash)
                break
            wake = settle.next_injector_wake(current + 1)
            if wake is not None:
                heappush(events, (wake, _INJECTOR))

        # ------------------------------------------------------ monitoring mark
        if mark_due:
            sample = settle.mark(current, workload.num_browsers)
            if sample is not None:
                heappush(events, (current + settle.mark_interval_ticks, _MARK))
            else:
                heappush(events, (max(settle.next_mark_tick(), current + 1), _MARK))
        elif tick_begun:
            # Close the synchronised tick now so the next mark stays on the
            # fused fast path.
            settle.settle_open()

    if not trace.crashed:
        settle.settle_through(final_tick)
    if tel is not None:
        tel.count("event.event_ticks", n_event_ticks, channel=_ENGINE_CHANNEL)
        tel.count("event.wakes.action", n_action_wakes, channel=_ENGINE_CHANNEL)
        tel.count("event.wakes.mark", n_mark_wakes, channel=_ENGINE_CHANNEL)
        tel.count("event.wakes.injector", n_injector_wakes, channel=_ENGINE_CHANNEL)
        tel.count("event.request_ticks", n_request_ticks, channel=_ENGINE_CHANNEL)
        sim._telemetry_finish()
    return trace
