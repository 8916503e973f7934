"""The ``service_live`` workload: a paced ``repro serve`` under a live client.

The benchmark process is the client, one thread running an asyncio loop:

* :data:`DASHBOARDS` copies of the service's own dashboard page
  (``repro.service.dashboard``).  Each refreshes every
  :data:`REFRESH_PERIOD_S` as the page does -- ``GET /fleet`` and ``GET
  /forecasts`` at once (``Promise.all``), then ``GET /nodes`` -- over its own
  two keep-alive connections, as a browser tab would.  The copies are
  staggered evenly over the refresh period.  One dashboard refreshes about
  five times in a run, too few for a tail latency, so their number is a
  sampling choice, not a claim about how many people watch a session.
* a synthetic write probe posts a ``load`` mutation alternating between
  :data:`OPERATOR_LOADS` every :data:`OPERATE_PERIOD_S` on a connection of
  its own.  Nothing in the repository posts mutations on a schedule; the
  rate only gives the run a steady share of writes.  The probe stops
  :data:`OPERATOR_MARGIN_S` of wall clock before the session's horizon, so
  that no command can arrive after it.

A refresh is timed whole, from when it was due until ``/nodes`` answered:
that is what the page waits for before it can render.  A mutation is timed
from its slot in the schedule.  Each endpoint's own latency is kept too,
``/nodes`` timed from when the pair before it answered (that is when the
page issues it).  How late the schedule itself ran is reported as the
generator's lateness.  The end of the run is the first response that shows
the horizon tick, so it is timed to about one stagger.
"""

from __future__ import annotations

import asyncio
import http.client
import itertools
import json
import re
import time
from pathlib import Path

from procs import LineReader, reap, spawn

__all__ = ["HORIZON_PER_SECOND", "PACE_MS", "run_service", "time_setup"]

PACE_MS = 0.25
#: Simulated seconds of session horizon per second of ``--seconds``: at
#: :data:`PACE_MS` the stepper sleeps half of each second and computes for
#: most of the rest.
HORIZON_PER_SECOND = 1800
#: The page's ``setInterval(refresh, 2000)``.
REFRESH_PERIOD_S = 2.0
DASHBOARDS = 40
OPERATE_PERIOD_S = 1.0
OPERATOR_LOADS = (132, 120)
OPERATOR_MARGIN_S = 2.0
BOOT_DEADLINE_S = 90.0
RUN_DEADLINE_S = 90.0
#: Latencies kept: per endpoint, and per whole refresh.
SAMPLE_KEYS = ("fleet", "forecasts", "nodes", "mutations", "refreshes")
_CONTENT_LENGTH = re.compile(rb"(?im)^content-length:[ \t]*(\d+)")


class _Client:
    """What every connection of the client recorded."""

    def __init__(self, port: int, horizon: int) -> None:
        self.port = port
        self.horizon = horizon
        self.samples: dict[str, list[float]] = {key: [] for key in SAMPLE_KEYS}
        self.lateness: list[float] = []
        self.requests = 0
        self.errors: list[str] = []
        self.tick = 0
        self.ticks_per_s = 0.0
        self.run_end: float | None = None
        self._first: tuple[float, int] | None = None

    def observe(self, document: dict | list | None) -> None:
        """Record the tick that a response arriving now carried."""
        tick = document.get("tick") if isinstance(document, dict) else None
        if tick is None:
            return
        at = time.perf_counter()
        if self._first is None:
            self._first = (at, tick)
        elif at > self._first[0]:
            self.ticks_per_s = (tick - self._first[1]) / (at - self._first[0])
        self.tick = max(self.tick, tick)
        if tick >= self.horizon and self.run_end is None:
            self.run_end = at

    def near_horizon(self) -> bool:
        return self.tick + self.ticks_per_s * OPERATOR_MARGIN_S >= self.horizon


class _Connection:
    """One keep-alive HTTP/1.1 connection to the service."""

    def __init__(self, client: _Client) -> None:
        self.client = client
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, due: float, key: str, body: dict | None = None):
        """Send one request; record its latency from ``due``; return the JSON body."""
        client = self.client
        client.requests += 1
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection("127.0.0.1", client.port)
            head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            payload = b""
            if method == "POST":
                payload = json.dumps(body).encode()
                head += f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
            self.writer.write(head.encode() + b"\r\n" + payload)
            await self.writer.drain()
            header = await self.reader.readuntil(b"\r\n\r\n")
            length = _CONTENT_LENGTH.search(header)
            raw = await self.reader.readexactly(int(length.group(1))) if length else b""
        except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError) as error:
            client.errors.append(f"{method} {path}: {type(error).__name__}: {error}")
            self.close()
            return None
        if length is None:
            client.errors.append(f"{method} {path}: response without Content-Length")
            self.close()
            return None
        status = int(header.split(None, 2)[1])
        client.samples[key].append(time.perf_counter() - due)
        try:
            document = json.loads(raw)
        except ValueError:
            document = None
        if status != 200 or not isinstance(document, (dict, list)):
            client.errors.append(f"{method} {path}: HTTP {status}: {raw[:200]!r}")
            return None
        return document

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None


async def _sleep_until(moment: float) -> None:
    delay = moment - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


async def _dashboard(client: _Client, due: float) -> None:
    """One copy of the dashboard page, refreshing from ``due`` until the horizon."""
    fleet, forecasts = _Connection(client), _Connection(client)
    try:
        while True:
            await _sleep_until(due)
            if client.run_end is not None:
                return
            client.lateness.append(time.perf_counter() - due)
            documents = await asyncio.gather(
                fleet.request("GET", "/fleet", due, "fleet"),
                forecasts.request("GET", "/forecasts", due, "forecasts"),
            )
            for document in documents:
                client.observe(document)
            nodes = await fleet.request("GET", "/nodes", time.perf_counter(), "nodes")
            if None in documents or nodes is None:
                return
            client.samples["refreshes"].append(time.perf_counter() - due)
            due += REFRESH_PERIOD_S
    finally:
        fleet.close()
        forecasts.close()


async def _operate(client: _Client, due: float) -> None:
    """The write probe: load mutations every period until near the horizon."""
    connection = _Connection(client)
    try:
        for slot in itertools.count():
            await _sleep_until(due)
            if client.near_horizon() or client.run_end is not None:
                return
            client.lateness.append(time.perf_counter() - due)
            body = {"kind": "load", "total_ebs": OPERATOR_LOADS[slot % len(OPERATOR_LOADS)]}
            document = await connection.request("POST", "/mutations", due, "mutations", body)
            if document is None:
                return
            client.observe(document)
            due += OPERATE_PERIOD_S
    finally:
        connection.close()


async def _drive(client: _Client, start: float) -> None:
    """Run every dashboard and the write probe from ``start`` to the horizon."""
    stagger = REFRESH_PERIOD_S / DASHBOARDS
    tasks = [_dashboard(client, start + index * stagger) for index in range(DASHBOARDS)]
    tasks.append(_operate(client, start + OPERATE_PERIOD_S + stagger / 2))
    await asyncio.wait_for(asyncio.gather(*tasks), RUN_DEADLINE_S)
    if client.run_end is None:
        raise RuntimeError(f"no response showed tick {client.horizon}: {client.errors[:3]}")


def _boot(argv: list[str], env: dict, root: Path, cpu: int) -> tuple:
    """Spawn the server on ``cpu`` and wait for its address; return (process, reader, port, spawn time)."""
    spawned = time.perf_counter()
    process = spawn(argv, env, root, cpu)
    reader = LineReader(process)
    while True:
        line = reader.readline(spawned + BOOT_DEADLINE_S)
        if line is None:
            raise RuntimeError("repro serve exited before it reported its address")
        if line.startswith("fleet service on http://"):
            return process, reader, int(line.split()[3].rsplit(":", 1)[1]), spawned


def _first_response(connection: http.client.HTTPConnection, deadline: float) -> None:
    """Poll ``GET /fleet`` until it answers 200."""
    while True:
        connection.request("GET", "/fleet")
        response = connection.getresponse()
        response.read()
        if response.status == 200:
            return
        if time.perf_counter() > deadline:
            raise RuntimeError(f"GET /fleet never answered 200 (last {response.status})")
        time.sleep(0.01)


def _shut_down(connection: http.client.HTTPConnection, reader: LineReader) -> tuple[float, dict]:
    """``POST /shutdown`` and wait for the server's output to end; return (seconds, response)."""
    asked = time.perf_counter()
    connection.request("POST", "/shutdown")
    response = connection.getresponse()
    raw = response.read()
    shutdown_s = time.perf_counter() - asked
    connection.close()
    if response.status != 200:
        raise RuntimeError(f"POST /shutdown answered {response.status}: {raw[:200]!r}")
    while reader.readline(time.perf_counter() + BOOT_DEADLINE_S) is not None:
        pass  # drain the server's closing narration until it exits
    return shutdown_s, json.loads(raw)


def _kill(process) -> None:
    if process.returncode is None:
        process.kill()
        reap(process)


def time_setup(argv: list[str], env: dict, root: Path, cpu: int) -> list[float]:
    """``[start, end]`` from spawning ``argv`` to the first ``200`` from ``GET /fleet``."""
    process, reader, port, spawned = _boot(argv, env, root, cpu)
    try:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=BOOT_DEADLINE_S)
        _first_response(connection, spawned + BOOT_DEADLINE_S)
        ready = time.perf_counter()
        _shut_down(connection, reader)
        reap(process)
    finally:
        _kill(process)
    if process.returncode != 0:
        raise RuntimeError(f"repro serve exited with {process.returncode}")
    return [spawned, ready]


def run_service(argv: list[str], env: dict, root: Path, horizon_ticks: int, cpu: int) -> dict:
    """Drive one live session on ``cpu`` from spawn to exit; return its raw measurements."""
    process, reader, port, spawned = _boot(argv, env, root, cpu)
    boot_s = time.perf_counter() - spawned
    try:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=BOOT_DEADLINE_S)
        _first_response(connection, spawned + BOOT_DEADLINE_S)
        start = time.perf_counter()
        client = _Client(port, horizon_ticks)
        asyncio.run(_drive(client, start))
        shutdown_s, shutdown = _shut_down(connection, reader)
        peak_rss_mb = reap(process)
    finally:
        _kill(process)
    if process.returncode != 0:
        raise RuntimeError(f"repro serve exited with {process.returncode}")
    return {
        "boot_s": boot_s,
        "setup": [spawned, start],
        "run": [start, client.run_end],
        "ticks_per_s": client.ticks_per_s,
        "samples": client.samples,
        "lateness": client.lateness,
        "requests": client.requests,
        "errors": client.errors,
        "shutdown_s": shutdown_s,
        "final_tick": shutdown["final_tick"],
        "peak_rss_mb": peak_rss_mb,
    }
