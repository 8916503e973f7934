"""The per-second single-server loop the event engine replaced, kept as the reference.

``run_per_second`` is the original ``TestbedSimulation`` run loop: it
advances every emulated browser every simulated second, serves the issued
requests, drives the injectors and closes the tick.  The event-driven
``TestbedSimulation.run`` must reproduce its traces, crash times and
sim-channel telemetry bit for bit.

The :func:`per_second_engine` fixture swaps ``TestbedSimulation.run`` for
this loop, so a whole experiment driver can be run through the reference
in process and compared with its event-driven run.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.telemetry.hub import ENGINE
from repro.testbed.engine import TestbedSimulation
from repro.testbed.errors import ServerCrash
from repro.testbed.monitoring.collector import Trace


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
        outcome = simulation.serve(interaction)
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
