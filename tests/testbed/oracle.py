"""The per-second single-server loop the event engine replaced, kept as the reference.

``run_per_second`` is the original ``TestbedSimulation`` run loop: it
advances every emulated browser every simulated second, serves the issued
requests, drives the injectors and closes the tick.  The event-driven
``TestbedSimulation.run`` must reproduce its traces, crash times and
sim-channel telemetry bit for bit.

``handle_request`` is the reference object serving path: the server, thread
pool, servlet, heap and database methods, one call each.  The serving kernel
of ``repro.testbed.events`` fuses it and must leave every component field
exactly where this path leaves it; both per-second reference loops (this one
and ``tests/cluster/oracle.py``) serve through it.

The :func:`per_second_engine` fixture swaps ``TestbedSimulation.run`` for
this loop, so a whole experiment driver can be run through the reference
in process and compared with its event-driven run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import pytest

from repro.telemetry.hub import ENGINE
from repro.testbed.appserver.tomcat import TomcatServer
from repro.testbed.engine import TestbedSimulation
from repro.testbed.errors import ServerCrash
from repro.testbed.monitoring.collector import Trace
from repro.testbed.tpcw.interactions import Interaction


@dataclass(frozen=True)
class RequestOutcome:
    """What happened to one request submitted to the server."""

    interaction_name: str
    response_time_s: float
    queued: bool


def handle_request(server: TomcatServer, interaction: Interaction) -> RequestOutcome:
    """Serve one request on ``server``'s current tick and return its outcome.

    The call allocates the interaction's transient memory (which may
    trigger minor/major GCs or an OutOfMemoryError inside the heap),
    performs the interaction's database queries and computes the response
    time from the base service demand inflated by thread contention.
    """
    server._concurrent_this_tick += 1
    server.thread_pool.set_concurrency(server._concurrent_this_tick)
    queued = server._concurrent_this_tick > server.thread_pool.worker_threads

    servlet = server.servlets.get(interaction.name)
    servlet.invoke()

    server.heap.allocate_transient(server.config.request_memory_mb * interaction.memory_factor)
    db_time = server.database.execute_queries(interaction.db_queries)

    service_time = server.config.base_service_time_s * interaction.service_demand_factor
    contention = contention_factor(server)
    response_time = service_time * contention + db_time
    if queued:
        # A request that had to wait for a worker sees roughly one extra
        # service quantum of queueing delay.
        response_time += service_time

    server.total_requests += 1
    server.requests_since_sample += 1
    server.response_time_since_sample += response_time
    if queued:
        server.queued_since_sample += 1
    return RequestOutcome(interaction.name, response_time, queued)


def contention_factor(server: TomcatServer) -> float:
    """Response-time inflation due to CPU and thread contention.

    A light-weight M/M/c-style approximation: response time grows with the
    ratio of in-flight requests to cores, and sharply once the heap is
    nearly full (GC pressure) -- the gradual performance degradation that,
    per the paper, accompanies software aging.
    """
    in_flight = max(server._concurrent_this_tick, 1)
    cpu_pressure = in_flight / (server.config.cpu_cores * 4.0)
    heap_pressure = 0.0
    headroom_fraction = server.heap.headroom_mb / max(server.heap.old_max_mb, 1.0)
    if headroom_fraction < 0.10:
        heap_pressure = (0.10 - headroom_fraction) * 30.0
    return 1.0 + cpu_pressure + heap_pressure


def run_per_second(simulation: TestbedSimulation, max_seconds: float = 4 * 3600.0) -> Trace:
    """Run ``simulation`` tick by tick until it crashes or ``max_seconds`` pass."""
    if max_seconds <= 0:
        raise ValueError("max_seconds must be positive")
    trace = simulation.begin()
    while simulation.clock.now < max_seconds and not trace.crashed:
        now = simulation.begin_tick()
        try:
            requests_this_tick = _run_one_tick(simulation, now)
        except ServerCrash as crash:
            simulation.record_crash(now, crash)
            break
        simulation.end_tick(now, requests_this_tick)
    if simulation.telemetry is not None:
        simulation.telemetry.count("per_second.ticks", simulation.clock.ticks, channel=ENGINE)
        simulation._telemetry_finish()
    return trace


def _run_one_tick(simulation: TestbedSimulation, now: float) -> int:
    """Advance workload, serve requests and drive injectors for one tick.

    Returns the number of requests served this tick (the OS model's
    request-driven disk growth reads it).
    """
    issued = simulation.workload.tick(simulation.config.tick_seconds)
    for browser, interaction in issued:
        outcome = handle_request(simulation.server, interaction)
        browser.start_request(outcome.response_time_s)
    simulation.drive_injectors(now)
    return len(issued)


@pytest.fixture
def per_second_engine(monkeypatch):
    """A context manager that runs every ``TestbedSimulation.run`` per second.

    Inside ``with per_second_engine():`` each ``TestbedSimulation.run`` call
    goes through :func:`run_per_second`; on exit it asserts that the
    reference loop ran at least once, so a test cannot pass by comparing the
    event engine with itself.
    """

    @contextlib.contextmanager
    def swapped():
        runs = []

        def run(simulation, max_seconds=4 * 3600.0):
            runs.append(max_seconds)
            return run_per_second(simulation, max_seconds)

        with monkeypatch.context() as patch:
            patch.setattr(TestbedSimulation, "run", run)
            yield
        assert runs, "the per-second reference loop never ran"

    return swapped
