"""The HTTP surface of the fleet service (stdlib ``http.server`` only).

A ``ThreadingHTTPServer`` whose handler threads talk to one
:class:`~repro.service.session.SimulationSession`.  Handlers never touch the
engine directly -- every query and mutation goes through the session's
boundary lock, so an HTTP request can observe the fleet only at a tick
boundary and the response bodies are canonical JSON snapshots.

Connections are HTTP/1.1 keep-alive and a response goes out as two writes
(headers, then body), so every accepted socket sets ``TCP_NODELAY``: with
Nagle's algorithm on, the body would wait for the client's delayed ACK,
about 40 ms on Linux, on every response.

Endpoints::

    GET  /              the single-file dashboard (HTML)
    GET  /fleet         fleet summary (tick, availability, load, status)
    GET  /nodes         every node's status dict
    GET  /nodes/<id>    one node's status dict
    GET  /forecasts     per-node forecast + alarm state
    GET  /schedule      rejuvenation picture (draining/restarting/alarmed)
    GET  /availability  the FleetStatus accumulator snapshot
    GET  /commands      the tick-stamped mutation log so far
    GET  /telemetry/stream   server-sent events over the sim-channel trace
    POST /mutations     apply a mutation at the next tick boundary (400 if
                        malformed, 409 once the horizon is reached)
    POST /pause, /resume     freeze / unfreeze simulation time
    POST /shutdown      finish the run, persist artifacts, stop the server
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.service.dashboard import DASHBOARD_HTML
from repro.service.mutations import MutationError, MutationRefused
from repro.service.session import SimulationSession
from repro.telemetry.hub import SIM
from repro.telemetry.sinks import canonical_json

__all__ = ["FleetServiceServer", "serve_session"]

_MAX_BODY_BYTES = 64 * 1024
_STREAM_POLL_SECONDS = 0.05
_STREAM_HEARTBEAT_SECONDS = 2.0


def _json_line(payload: object) -> bytes:
    return (canonical_json(payload) + "\n").encode("utf-8")


class FleetServiceServer(ThreadingHTTPServer):
    """One fleet session behind a threading HTTP server."""

    daemon_threads = True

    def __init__(self, session: SimulationSession, host: str = "127.0.0.1", port: int = 0) -> None:
        self.session = session
        super().__init__((host, port), _FleetRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _FleetRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket (see the module docstring).
    disable_nagle_algorithm = True
    server: FleetServiceServer

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass  # the service narrates through its CLI, not per-request noise

    def _send_bytes(self, body: bytes, status: int = 200, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, payload: object, status: int = 200) -> None:
        self._send_bytes(_json_line(payload), status=status)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_json_body(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # The body cannot be framed: answer, then close the connection
            # rather than parse its bytes as the next request.
            self.close_connection = True
            raise MutationError(f"Content-Length must be a non-negative integer, not {raw_length!r}")
        if length == 0:
            raise MutationError("request body must be a JSON object")
        if length > _MAX_BODY_BYTES:
            raise MutationError("request body too large")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise MutationError(f"request body is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise MutationError("request body must be a JSON object")
        return payload

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        session = self.server.session
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path in ("/", "/dashboard"):
                self._send_bytes(DASHBOARD_HTML.encode("utf-8"), content_type="text/html; charset=utf-8")
            elif path == "/fleet":
                self._send_json(session.fleet_status())
            elif path == "/nodes":
                self._send_json(session.node_statuses())
            elif path.startswith("/nodes/"):
                self._get_node(path)
            elif path == "/forecasts":
                self._send_json(session.forecasts())
            elif path == "/schedule":
                self._send_json(session.schedule())
            elif path == "/availability":
                self._send_json(session.availability())
            elif path == "/commands":
                self._send_json(session.commands())
            elif path == "/telemetry/stream":
                self._stream_telemetry()
            else:
                self._send_error_json(404, f"no such endpoint: {path}")
        except (BrokenPipeError, ConnectionResetError):  # client went away
            pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        session = self.server.session
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            if path == "/mutations":
                try:
                    command = session.submit_mutation(self._read_json_body())
                except MutationRefused as error:
                    self._send_error_json(409, str(error))
                except MutationError as error:
                    self._send_error_json(400, str(error))
                else:
                    self._send_json(command)
            elif path == "/pause":
                session.pause()
                self._send_json({"paused": True, "tick": session.fleet_status()["tick"]})
            elif path == "/resume":
                session.resume()
                self._send_json({"paused": False})
            elif path == "/shutdown":
                result = session.finish()
                self._send_json(
                    {
                        "final_tick": result["final_tick"],
                        "telemetry_digest": result["telemetry_digest"],
                        "session_dir": str(session.recorder.directory),
                    }
                )
                # Stop accepting requests once the response is on the wire;
                # shutdown() must run off the handler thread's serve loop.
                threading.Thread(target=self.server.shutdown, daemon=True).start()
            else:
                self._send_error_json(404, f"no such endpoint: {path}")
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _get_node(self, path: str) -> None:
        raw = path[len("/nodes/") :]
        try:
            node_id = int(raw)
        except ValueError:
            self._send_error_json(400, f"node id must be an integer, not {raw!r}")
            return
        try:
            status = self.server.session.node_status(node_id)
        except KeyError:
            self._send_error_json(404, f"no such node: {node_id}")
            return
        self._send_json(status)

    # ------------------------------------------------------------------ SSE

    def _stream_telemetry(self) -> None:
        """Server-sent events over the session's sim-channel trace.

        Cursor-polls the hub's append-only event list (cheap, lock-free under
        the GIL) and pushes each new sim event as one ``data:`` frame.  The
        stream ends when the session finishes and the backlog is drained.
        """
        session = self.server.session
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        cursor = 0
        last_beat = time.monotonic()
        while True:
            events = session.telemetry.events
            upper = len(events)
            emitted = False
            for event in events[cursor:upper]:
                if event.channel != SIM:
                    continue
                frame = {
                    "kind": event.kind,
                    "tick": event.tick,
                    "run": event.run,
                    "data": dict(event.data),
                }
                self.wfile.write(b"data: " + _json_line(frame) + b"\n")
                emitted = True
            cursor = upper
            if emitted:
                self.wfile.flush()
                last_beat = time.monotonic()
            if session.finished and cursor >= len(session.telemetry.events):
                self.wfile.write(b"event: end\ndata: {}\n\n")
                self.wfile.flush()
                return
            if time.monotonic() - last_beat >= _STREAM_HEARTBEAT_SECONDS:
                self.wfile.write(b": heartbeat\n\n")
                self.wfile.flush()
                last_beat = time.monotonic()
            time.sleep(_STREAM_POLL_SECONDS)


def serve_session(session: SimulationSession, host: str = "127.0.0.1", port: int = 0) -> FleetServiceServer:
    """Bind a server to ``session`` (port 0 = ephemeral) without starting it.

    The caller owns the serve loop: ``server.serve_forever()`` blocks until a
    ``POST /shutdown`` (or ``server.shutdown()`` from another thread).
    """
    return FleetServiceServer(session, host=host, port=port)
