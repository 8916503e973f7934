"""The HTTP surface: endpoints, SSE stream, shutdown, and the serve CLI.

Each test binds an ephemeral port (port 0), talks to the real
``ThreadingHTTPServer`` with ``urllib`` and tears the whole thing down --
the same wire a curl walkthrough or the dashboard uses.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.cli import main as repro_main
from repro.service.server import serve_session
from repro.service.session import SessionRecorder, SimulationSession
from tests.service.conftest import PACE, canonical, wait_for_tick


@pytest.fixture
def live_server(tiny_manifest, tmp_path):
    session = SimulationSession(
        tiny_manifest, tmp_path / "session", chunk_ticks=30, pace_seconds_per_tick=PACE
    )
    server = serve_session(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    session.start()
    yield server, session
    server.shutdown()
    server.server_close()
    session.finish()
    thread.join(timeout=10)


def _get(server, path, timeout=10):
    with urllib.request.urlopen(server.url + path, timeout=timeout) as response:
        return json.loads(response.read())


def _post(server, path, payload=None, timeout=30):
    data = json.dumps(payload if payload is not None else {}).encode()
    request = urllib.request.Request(
        server.url + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def test_status_endpoints(live_server):
    server, session = live_server
    wait_for_tick(session, 60)
    fleet = _get(server, "/fleet")
    assert fleet["num_nodes"] == 3
    assert fleet["tick"] >= 60
    assert 0.0 <= fleet["availability"] <= 1.0
    nodes = _get(server, "/nodes")
    assert [node["node_id"] for node in nodes] == [0, 1, 2]
    node1 = _get(server, "/nodes/1")
    assert node1["node_id"] == 1
    assert node1["state"] in ("active", "draining", "restarting")
    forecasts = _get(server, "/forecasts")
    assert {entry["node_id"] for entry in forecasts["nodes"]} == {0, 1, 2}
    schedule = _get(server, "/schedule")
    assert "coordinator" in schedule
    availability = _get(server, "/availability")
    assert availability["num_nodes"] == 3
    assert _get(server, "/commands") == []


def test_responses_are_sent_with_nagle_off(live_server, monkeypatch):
    """A keep-alive response goes out as two writes (headers, then body);
    with Nagle's algorithm on, the body would wait for the client's delayed
    ACK, so every accepted socket must set TCP_NODELAY."""
    server, _ = live_server
    handler = server.RequestHandlerClass
    setup = handler.setup
    nodelay = []

    def recording_setup(self):
        setup(self)
        nodelay.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(handler, "setup", recording_setup)
    assert _get(server, "/fleet")["num_nodes"] == 3
    assert nodelay and all(nodelay)


@pytest.mark.parametrize("length", ["abc", "12abc"])
def test_malformed_content_length_gets_400(live_server, length):
    """A Content-Length that does not parse is a 400, not a dropped connection."""
    server, _ = live_server
    host, port = server.server_address[:2]
    body = b'{"kind":"load","total_ebs":90}'
    request = (
        f"POST /mutations HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {length}\r\n\r\n"
    ).encode() + body
    response = b""
    with socket.create_connection((host, port), timeout=10) as connection:
        connection.sendall(request)
        # The body cannot be framed, so the server answers and then closes.
        while chunk := connection.recv(4096):
            response += chunk
    head, _, payload = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400"), response
    assert "Content-Length" in json.loads(payload)["error"]
    assert _get(server, "/commands") == []


def test_dashboard_is_served(live_server):
    server, _ = live_server
    with urllib.request.urlopen(server.url + "/", timeout=10) as response:
        assert "text/html" in response.headers["Content-Type"]
        body = response.read().decode()
    assert "fleet-as-a-service" in body
    assert "/forecasts" in body


def test_unknown_routes_are_404(live_server):
    server, _ = live_server
    for path in ("/nope", "/nodes/99"):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, path)
        assert excinfo.value.code == 404
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(server, "/nodes/abc")
    assert excinfo.value.code == 400


def test_mutations_and_pause_over_http(live_server):
    server, session = live_server
    wait_for_tick(session, 60)
    # Pause first, so the commands land at one known boundary instead of
    # wherever the stepper has got to.
    paused = _post(server, "/pause")
    assert paused["paused"] is True
    frozen = paused["tick"]
    assert frozen < session.horizon_ticks
    spike = _post(server, "/mutations", {"kind": "load", "total_ebs": 150})
    assert spike["kind"] == "load" and spike["seq"] == 0 and spike["tick"] == frozen
    kill = _post(server, "/mutations", {"kind": "kill", "node": 2, "reason": "drill"})
    assert kill["tick"] == frozen
    assert _get(server, "/nodes/2")["live"] is False
    assert [c["seq"] for c in _get(server, "/commands")] == [0, 1]
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _post(server, "/mutations", {"kind": "load", "total_ebs": 0})
    assert excinfo.value.code == 400
    assert "error" in json.loads(excinfo.value.read())
    time.sleep(0.2)
    assert _get(server, "/fleet")["tick"] == frozen
    assert _post(server, "/resume")["paused"] is False
    wait_for_tick(session, frozen + 1)


def test_mutations_past_the_horizon_are_409_and_unrecorded(tiny_manifest, tmp_path):
    session = SimulationSession(tiny_manifest, tmp_path / "session", chunk_ticks=300)
    server = serve_session(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    session.start()
    try:
        assert session.wait_until_done(timeout=120.0)
        assert _get(server, "/fleet")["tick"] == session.horizon_ticks
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/mutations", {"kind": "load", "total_ebs": 150})
        assert excinfo.value.code == 409
        assert "horizon" in json.loads(excinfo.value.read())["error"]
        # A malformed command is still a 400, whatever the tick.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(server, "/mutations", {"kind": "load", "total_ebs": 0})
        assert excinfo.value.code == 400
        assert _get(server, "/commands") == []
        assert _get(server, "/fleet")["mutations"] == 0
    finally:
        server.shutdown()
        server.server_close()
        session.finish()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert SessionRecorder.read_commands(tmp_path / "session") == []


def test_telemetry_stream_emits_sim_events(live_server):
    server, session = live_server
    wait_for_tick(session, 30)
    with urllib.request.urlopen(server.url + "/telemetry/stream", timeout=10) as stream:
        assert stream.headers["Content-Type"] == "text/event-stream"
        deadline = time.monotonic() + 30.0
        frame = None
        while time.monotonic() < deadline:
            line = stream.readline().decode()
            if line.startswith("data: "):
                frame = json.loads(line[len("data: ") :])
                break
        assert frame is not None, "no SSE data frame arrived"
        assert {"kind", "tick", "run", "data"} <= set(frame)


def test_shutdown_persists_and_replay_cli_verifies(tiny_manifest, tmp_path, capsys):
    session_dir = tmp_path / "session"
    session = SimulationSession(tiny_manifest, session_dir, chunk_ticks=30, pace_seconds_per_tick=PACE)
    server = serve_session(session)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    session.start()
    try:
        wait_for_tick(session, 60)
        assert _post(server, "/pause")["tick"] < session.horizon_ticks
        _post(server, "/mutations", {"kind": "load", "total_ebs": 90})
        _post(server, "/mutations", {"kind": "rejuvenate", "node": 0})
        _post(server, "/resume")
        assert session.wait_until_done(timeout=120.0)
        result = _post(server, "/shutdown")
        assert result["final_tick"] == session.horizon_ticks
        assert result["session_dir"] == str(session_dir)
        thread.join(timeout=10)
        assert not thread.is_alive(), "serve loop did not stop after /shutdown"
    finally:
        server.server_close()
        session.finish()
    # The replay CLI re-executes the session and verifies the recorded outcome.
    assert repro_main(["serve", "--replay", str(session_dir)]) == 0
    out = capsys.readouterr()
    replayed = json.loads(out.out.strip().splitlines()[-1])
    assert replayed["final_tick"] == result["final_tick"]
    assert replayed["telemetry_digest"] == result["telemetry_digest"]
    assert "replay matches recorded outcome" in out.err
    recorded = json.loads((session_dir / "outcome.json").read_text())
    assert canonical(recorded) == canonical(replayed)


def test_replay_cli_flags_divergence(tiny_manifest, tmp_path, capsys):
    session_dir = tmp_path / "session"
    session = SimulationSession(tiny_manifest, session_dir, chunk_ticks=30)
    session.start()
    assert session.wait_until_done(timeout=120.0)
    session.finish()
    # Corrupt the recorded outcome: replay must exit non-zero.
    outcome_path = session_dir / "outcome.json"
    record = json.loads(outcome_path.read_text())
    record["telemetry_digest"] = "0" * 64
    outcome_path.write_text(json.dumps(record))
    assert repro_main(["serve", "--replay", str(session_dir)]) == 1
    assert "DIVERGED" in capsys.readouterr().err
