"""Live sessions, atomic recording and byte-identical replay.

The tentpole guarantee: a live session -- stepper thread racing HTTP-style
mutation submissions under real wall-clock nondeterminism -- leaves behind
a command log whose replay reproduces the exact outcome and telemetry
digest.  The live run's only nondeterminism is *which boundary tick* each
mutation lands on; once stamped, everything downstream is a pure function.
"""

import json
import random
import threading
import time

import pytest

from repro.service.mutations import MutationCommand, MutationRefused
from repro.service.session import (
    SessionRecorder,
    SimulationSession,
    build_service_manifest,
    replay_session,
    service_scenario,
)
from tests.service.conftest import PACE, canonical, wait_for_tick


def _drive_live_session(manifest, directory, chunk_ticks=30):
    """Run one live paced session, pausing it from the foreground thread to
    inject mutations -- the wall-clock interleaving decides the boundary
    each pause lands on, and so the stamps.  Returns the finish() payload."""
    session = SimulationSession(
        manifest, directory, chunk_ticks=chunk_ticks, pace_seconds_per_tick=PACE
    )
    session.start()
    # Wait until the fleet has actually advanced, then pause and mutate.
    wait_for_tick(session, 300)
    session.pause()
    session.submit_mutation({"kind": "load", "total_ebs": 180})
    session.submit_mutation({"kind": "kill", "node": 1, "reason": "drill"})
    session.resume()
    wait_for_tick(session, 1200)
    session.pause()
    session.submit_mutation({"kind": "leak_rate", "node": 0, "memory_n": 40})
    session.resume()
    assert session.wait_until_done(timeout=120.0)
    return session.finish()


def test_live_session_replays_byte_identically(fast_manifest, tmp_path):
    live = _drive_live_session(fast_manifest, tmp_path / "session")
    assert len(SessionRecorder.read_commands(tmp_path / "session")) >= 3
    replayed = replay_session(tmp_path / "session")
    assert canonical(replayed) == canonical(live)
    # The written outcome.json is the same canonical payload.
    recorded = json.loads((tmp_path / "session" / "outcome.json").read_text())
    assert canonical(recorded) == canonical(live)
    # And replay is itself reproducible.
    assert canonical(replay_session(tmp_path / "session")) == canonical(live)


def test_session_writes_all_artifacts(tiny_manifest, tmp_path):
    session = SimulationSession(tiny_manifest, tmp_path / "s", snapshot_every_ticks=300)
    session.start()
    assert session.wait_until_done(timeout=120.0)
    session.finish()
    names = {path.name for path in (tmp_path / "s").iterdir()}
    assert {"manifest.json", "outcome.json", "snapshots.jsonl", "trace.jsonl"} <= names
    snapshots = [
        json.loads(line)
        for line in (tmp_path / "s" / "snapshots.jsonl").read_text().splitlines()
    ]
    assert snapshots and all(snapshot["num_nodes"] == 3 for snapshot in snapshots)
    assert snapshots[-1]["tick"] <= session.horizon_ticks


def test_finish_is_idempotent_and_blocks_mutations(tiny_manifest, tmp_path):
    session = SimulationSession(tiny_manifest, tmp_path / "s")
    session.start()
    first = session.finish()
    assert canonical(session.finish()) == canonical(first)
    with pytest.raises(MutationRefused):
        session.submit_mutation({"kind": "load", "total_ebs": 50})


def test_pause_freezes_simulation_time(fast_manifest, tmp_path):
    session = SimulationSession(
        fast_manifest, tmp_path / "s", chunk_ticks=10, pace_seconds_per_tick=PACE
    )
    session.start()
    wait_for_tick(session, 50)
    session.pause()
    frozen = session.fleet_status()["tick"]
    assert frozen < session.horizon_ticks
    time.sleep(0.2)
    assert session.fleet_status()["tick"] == frozen
    session.resume()
    wait_for_tick(session, frozen + 1)
    session.finish()


def test_concurrent_submitters_serialize_at_boundaries(fast_manifest, tmp_path):
    """Racing mutation submitters never tear the log: every command lands at
    a boundary with a unique sequence number, and replay still matches."""
    session = SimulationSession(
        fast_manifest, tmp_path / "s", chunk_ticks=20, pace_seconds_per_tick=PACE
    )
    session.start()
    errors: list[Exception] = []

    def spam(node_id: int) -> None:
        try:
            session.submit_mutation({"kind": "leak_rate", "node": node_id, "memory_n": 30})
        except Exception as error:  # pragma: no cover - surfaced by the assert
            errors.append(error)

    threads = [threading.Thread(target=spam, args=(i,)) for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert session.wait_until_done(timeout=120.0)
    live = session.finish()
    commands = SessionRecorder.read_commands(tmp_path / "s")
    assert sorted(command.seq for command in commands) == [0, 1, 2]
    assert canonical(replay_session(tmp_path / "s")) == canonical(live)


def test_randomized_boundary_interleavings_replay_identically(tmp_path):
    """Property: however the live stepper chunked, the same stamped log
    replays to the same bytes.  Simulated by replaying one session log while
    the replayer itself is irrelevant -- the log is fixed -- and by running
    the log through randomized chunk schedules at the engine level."""
    manifest = build_service_manifest(preset="fast", policy="none", horizon_seconds=2400.0)
    directory = tmp_path / "seed-session"
    recorder = SessionRecorder(directory)
    recorder.write_manifest(manifest)
    log = [
        MutationCommand(tick=240, seq=0, kind="load", params={"total_ebs": 90}),
        MutationCommand(tick=240, seq=1, kind="kill", params={"node": 2}),
        MutationCommand(tick=600, seq=2, kind="rejuvenate", params={"node": 0}),
    ]
    for command in log:
        recorder.record_command(command)
    baseline = replay_session(directory)
    rng = random.Random(1234)
    for _ in range(3):
        # Shuffle the on-disk order: replay must sort by (tick, seq).
        shuffled = SessionRecorder(tmp_path / f"shuffle-{rng.randrange(1 << 30)}")
        shuffled.write_manifest(manifest)
        for command in rng.sample(log, len(log)):
            shuffled.record_command(command)
        assert canonical(replay_session(shuffled.directory)) == canonical(baseline)


def test_recorder_round_trips_commands(tmp_path):
    recorder = SessionRecorder(tmp_path)
    command = MutationCommand(tick=7, seq=0, kind="kill", params={"node": 1, "reason": "x"})
    recorder.record_command(command)
    loaded = SessionRecorder.read_commands(tmp_path)
    assert loaded == [command]


def test_a_torn_final_command_line_is_dropped(tmp_path):
    """A server that died mid-append leaves a final line with no newline:
    it reads as never recorded.  A complete malformed line still raises."""
    recorder = SessionRecorder(tmp_path)
    command = MutationCommand(tick=7, seq=0, kind="kill", params={"node": 1})
    recorder.record_command(command)
    log = tmp_path / "commands.jsonl"
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"kind":"load","params":{"total_')
    assert SessionRecorder.read_commands(tmp_path) == [command]
    with open(log, "a", encoding="utf-8") as handle:
        handle.write("\n")
    with pytest.raises(ValueError, match="not valid JSON"):
        SessionRecorder.read_commands(tmp_path)


def test_a_reused_session_directory_replays_only_the_latest_session(tiny_manifest, tmp_path):
    """A session starts from clean logs: the previous session's command in
    the same directory must not leak into the new session's replay."""
    directory = tmp_path / "session"
    first = SimulationSession(tiny_manifest, directory)
    first.submit_mutation({"kind": "kill", "node": 1})
    first.finish()
    assert len(SessionRecorder.read_commands(directory)) == 1

    second = SimulationSession(tiny_manifest, directory)
    second.start()
    assert second.wait_until_done(timeout=120.0)
    live = second.finish()
    assert canonical(replay_session(directory)) == canonical(live)
    assert SessionRecorder.read_commands(directory) == []


def test_replay_rejects_commands_past_final_tick(tmp_path):
    manifest = build_service_manifest(preset="fast", policy="none", horizon_seconds=600.0)
    recorder = SessionRecorder(tmp_path)
    recorder.write_manifest(manifest)
    recorder.record_command(
        MutationCommand(tick=9000, seq=0, kind="load", params={"total_ebs": 50})
    )
    with pytest.raises(ValueError, match="past the recorded final tick"):
        replay_session(tmp_path)


def test_replay_requires_a_manifest(tmp_path):
    with pytest.raises(ValueError, match="not a session directory"):
        replay_session(tmp_path)


def test_manifest_validation():
    with pytest.raises(ValueError, match="preset"):
        build_service_manifest(preset="imaginary")
    with pytest.raises(ValueError, match="interval_seconds"):
        build_service_manifest(policy="time_based")
    manifest = build_service_manifest(policy="time_based", interval_seconds=1800.0)
    scenario = service_scenario(manifest)
    assert scenario.num_nodes == 3
    with pytest.raises(ValueError, match="override"):
        service_scenario({"scenario": {"preset": "fast"}, "overrides": {"num_nodes": 5}})
