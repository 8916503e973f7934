"""``repro serve``: run the fleet service, or replay a recorded session.

Serving::

    repro serve --preset fast --kind memory --policy none \\
        --port 8000 --session-dir sessions/demo

starts the stepper and blocks in the HTTP serve loop until ``POST
/shutdown`` (or Ctrl-C, which also finishes the run gracefully).  The
session directory receives ``manifest.json``, the tick-stamped
``commands.jsonl``, periodic ``snapshots.jsonl``, and -- at shutdown --
``outcome.json`` plus the ``trace.jsonl`` telemetry sidecar.

Replaying::

    repro serve --replay sessions/demo

re-executes the recorded command log deterministically (no server, no
threads) and prints the replayed outcome as canonical JSON; when the live
run's ``outcome.json`` is present the two are compared and a mismatch is a
non-zero exit.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.cluster import FLEET_ENGINES
from repro.service.server import serve_session
from repro.service.session import (
    SCENARIO_PRESETS,
    SERVICE_POLICIES,
    SessionRecorder,
    SimulationSession,
    build_service_manifest,
    replay_session,
)
from repro.telemetry import canonical_json

__all__ = ["add_serve_arguments", "command_serve"]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--replay",
        metavar="DIR",
        help="replay a recorded session directory instead of serving",
    )
    parser.add_argument(
        "--preset",
        choices=SCENARIO_PRESETS,
        default="fast",
        help="cluster scenario recipe (default: fast)",
    )
    parser.add_argument(
        "--kind",
        choices=("memory", "threads", "two_resource"),
        default="memory",
        help="fleet aging scenario (default: memory)",
    )
    parser.add_argument(
        "--policy",
        choices=SERVICE_POLICIES,
        default="none",
        help="rejuvenation policy the fleet runs under (default: none)",
    )
    parser.add_argument(
        "--engine",
        choices=FLEET_ENGINES,
        default="event",
        help="cluster engine tier: exact event-driven or approximate fluid (default: event)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        metavar="SECONDS",
        help="restart interval (required by --policy time_based)",
    )
    parser.add_argument("--seed", type=int, help="cluster seed override")
    parser.add_argument("--total-ebs", type=int, help="fleet workload override (emulated browsers)")
    parser.add_argument("--horizon-seconds", type=float, help="scenario horizon override")
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8000, help="bind port; 0 = ephemeral (default: 8000)")
    parser.add_argument(
        "--session-dir",
        metavar="DIR",
        default="fleet-session",
        help="directory receiving the session artifacts (default: fleet-session/)",
    )
    parser.add_argument(
        "--chunk-ticks",
        type=int,
        default=60,
        metavar="N",
        help="ticks advanced per stepper hold of the engine lock (default: 60)",
    )
    parser.add_argument(
        "--pace-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="wall-clock milliseconds per simulated tick; 0 = as fast as possible (default: 0)",
    )


def _command_replay(directory: str) -> int:
    try:
        replayed = replay_session(directory)
        recorded = SessionRecorder.read_outcome(directory)
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro: {error}") from error
    text = canonical_json(replayed)
    print(text)
    if recorded is None:
        print("no recorded outcome.json to compare against", file=sys.stderr)
        return 0
    if canonical_json(recorded) == text:
        print(f"replay matches recorded outcome (digest {replayed['telemetry_digest'][:12]})",
              file=sys.stderr)
        return 0
    print("repro: replay DIVERGED from the recorded outcome", file=sys.stderr)
    return 1


def command_serve(args: argparse.Namespace) -> int:
    if args.replay:
        return _command_replay(args.replay)
    try:
        manifest = build_service_manifest(
            preset=args.preset,
            kind=args.kind,
            policy=args.policy,
            fleet_engine=args.engine,
            interval_seconds=args.interval,
            seed=args.seed,
            total_ebs=args.total_ebs,
            horizon_seconds=args.horizon_seconds,
        )
        session = SimulationSession(
            manifest,
            args.session_dir,
            pace_seconds_per_tick=args.pace_ms / 1000.0,
            chunk_ticks=args.chunk_ticks,
        )
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from error
    server = serve_session(session, host=args.host, port=args.port)
    session.start()
    print(f"fleet service on {server.url} (dashboard at {server.url}/)")
    print(f"session artifacts -> {session.recorder.directory}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ninterrupt: finishing the run...", file=sys.stderr)
    finally:
        server.server_close()
        result = session.finish()
        print(
            f"session finished at tick {result['final_tick']} "
            f"(digest {result['telemetry_digest'][:12]}); "
            f"replay with: repro serve --replay {session.recorder.directory}"
        )
    return 0
