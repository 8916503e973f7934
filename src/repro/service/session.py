"""Live simulation sessions: stepper thread, recording, replay.

A session owns one cluster engine and advances it chunk by chunk on a
background thread while HTTP threads query snapshots and submit mutations.
One reentrant lock serializes every engine touch, and it is only ever
released at tick boundaries -- so a mutation applied by an HTTP thread
always lands at a boundary, gets stamped with that boundary tick, and the
wall-clock interleaving of requests against the stepper cannot influence
the simulation.  The tick-stamped command log *is* the session's identity:
:func:`replay_session` rebuilds the engine from the manifest, replays the
log at the stamped ticks and reproduces the outcome and sim-channel
telemetry digest byte for byte.

The manifest deliberately describes the scenario by *recipe* (preset name,
kind, scalar overrides) rather than by pickled objects: a session directory
is a small, human-readable, forward-compatible artifact.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from pathlib import Path
from typing import Mapping

from repro.cluster.coordinator import (
    NoClusterRejuvenation,
    RollingPredictiveRejuvenation,
    UncoordinatedTimeBasedRejuvenation,
)
from repro.cluster.routing import AgingAwareRouting
from repro.experiments.cluster import FLEET_ENGINES, build_cluster_engine, train_cluster_predictor
from repro.experiments.scenarios import CLUSTER_SCENARIO_KINDS, ClusterScenario
from repro.service.mutations import MutationCommand, MutationRefused, apply_mutation, parse_mutation
from repro.telemetry import Telemetry, canonical_json, write_sidecar, write_sidecar_text
from repro.telemetry import runtime as telemetry_runtime
from repro.testbed.timeline import first_tick_at_or_after

__all__ = [
    "SCENARIO_PRESETS",
    "SERVICE_POLICIES",
    "SessionRecorder",
    "SimulationSession",
    "build_service_manifest",
    "build_service_engine",
    "service_scenario",
    "replay_session",
]

#: Scenario recipes a manifest may name (constructors on ClusterScenario).
SCENARIO_PRESETS = ("fast", "fast_heterogeneous", "paper")

#: Rejuvenation policies the service can operate.
SERVICE_POLICIES = ("none", "time_based", "rolling_predictive")

#: Scalar scenario fields a manifest may override on top of its preset.
_OVERRIDE_FIELDS = ("cluster_seed", "total_ebs", "horizon_seconds")

_MANIFEST_NAME = "manifest.json"
_COMMANDS_NAME = "commands.jsonl"
_SNAPSHOTS_NAME = "snapshots.jsonl"
_OUTCOME_NAME = "outcome.json"
_TRACE_NAME = "trace.jsonl"


# --------------------------------------------------------------- manifests


def build_service_manifest(
    preset: str = "fast",
    kind: str = "memory",
    policy: str = "none",
    fleet_engine: str = "event",
    interval_seconds: float | None = None,
    seed: int | None = None,
    total_ebs: int | None = None,
    horizon_seconds: float | None = None,
) -> dict:
    """Assemble and validate the session manifest from CLI-shaped inputs."""
    if preset not in SCENARIO_PRESETS:
        raise ValueError(f"preset must be one of {SCENARIO_PRESETS}, not {preset!r}")
    if kind not in CLUSTER_SCENARIO_KINDS:
        raise ValueError(f"kind must be one of {CLUSTER_SCENARIO_KINDS}, not {kind!r}")
    if policy not in SERVICE_POLICIES:
        raise ValueError(f"policy must be one of {SERVICE_POLICIES}, not {policy!r}")
    if fleet_engine not in FLEET_ENGINES:
        raise ValueError(f"fleet_engine must be one of {FLEET_ENGINES}, not {fleet_engine!r}")
    if policy == "time_based" and interval_seconds is None:
        raise ValueError("the time_based policy needs interval_seconds")
    overrides: dict = {}
    if seed is not None:
        overrides["cluster_seed"] = int(seed)
    if total_ebs is not None:
        overrides["total_ebs"] = int(total_ebs)
    if horizon_seconds is not None:
        overrides["horizon_seconds"] = float(horizon_seconds)
    return {
        "schema": 1,
        "scenario": {"preset": preset, "kind": kind},
        "overrides": overrides,
        "policy": policy,
        "interval_seconds": interval_seconds,
        "fleet_engine": fleet_engine,
    }


def service_scenario(manifest: Mapping[str, object]) -> ClusterScenario:
    """Rebuild the :class:`ClusterScenario` a manifest describes."""
    spec = manifest.get("scenario")
    if not isinstance(spec, Mapping):
        raise ValueError("manifest has no scenario recipe")
    preset = spec.get("preset")
    kind = spec.get("kind", "memory")
    builders = {
        "fast": ClusterScenario.fast,
        "fast_heterogeneous": ClusterScenario.fast_heterogeneous,
        "paper": ClusterScenario.paper_scale,
    }
    if preset not in builders:
        raise ValueError(f"unknown scenario preset {preset!r} (expected one of {SCENARIO_PRESETS})")
    scenario = builders[preset](kind=str(kind))
    overrides = manifest.get("overrides") or {}
    if not isinstance(overrides, Mapping):
        raise ValueError("manifest overrides must be a mapping")
    unknown = set(overrides) - set(_OVERRIDE_FIELDS)
    if unknown:
        raise ValueError(f"unsupported scenario override(s): {sorted(unknown)}")
    if overrides:
        scenario = dataclasses.replace(scenario, **dict(overrides))
    return scenario


def build_service_engine(manifest: Mapping[str, object], telemetry: Telemetry | None):
    """Construct the manifest's engine (capturing ``telemetry`` ambiently).

    The predictive policy's training runs execute with telemetry *disabled*
    so their single-server events do not pollute the session trace; the
    training is deterministic from the scenario, so a replay refits the
    exact same predictor.
    """
    scenario = service_scenario(manifest)
    policy = manifest.get("policy", "none")
    fleet_engine = str(manifest.get("fleet_engine", "event"))
    routing = None
    predictor = None
    if policy == "none":
        coordinator = NoClusterRejuvenation()
    elif policy == "time_based":
        interval = manifest.get("interval_seconds")
        if not isinstance(interval, (int, float)) or interval <= 0:
            raise ValueError("the time_based policy needs a positive interval_seconds")
        coordinator = UncoordinatedTimeBasedRejuvenation(float(interval))
    elif policy == "rolling_predictive":
        coordinator = RollingPredictiveRejuvenation(
            max_concurrent_restarts=scenario.max_concurrent_restarts,
            min_active_fraction=scenario.min_active_fraction,
        )
        routing = AgingAwareRouting(ttf_comfort_seconds=scenario.ttf_comfort_seconds)
        with telemetry_runtime.activate(None):
            predictor = train_cluster_predictor(scenario)
    else:
        raise ValueError(f"unknown policy {policy!r} (expected one of {SERVICE_POLICIES})")
    with telemetry_runtime.activate(telemetry):
        return build_cluster_engine(
            scenario,
            coordinator,
            routing_policy=routing,
            predictor=predictor,
            fleet_engine=fleet_engine,
        )


# ---------------------------------------------------------------- recorder


class SessionRecorder:
    """Persists one session's manifest, command log, snapshots and outcome.

    The manifest and the outcome land via scratch-file-plus-rename (the
    sidecar discipline).  The command and snapshot logs grow by one
    canonical JSON line per record; a server that dies mid-append leaves at
    most a final line with no newline, which :meth:`read_commands` drops.
    A new recorder first removes the previous session's logs, outcome and
    trace, so a reused directory never replays another session's commands.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for name in (_COMMANDS_NAME, _SNAPSHOTS_NAME, _OUTCOME_NAME, _TRACE_NAME):
            (self.directory / name).unlink(missing_ok=True)
        self._commands: list[MutationCommand] = []

    @property
    def commands(self) -> list[MutationCommand]:
        return list(self._commands)

    def write_manifest(self, manifest: dict) -> None:
        write_sidecar_text(canonical_json(manifest) + "\n", self.directory / _MANIFEST_NAME)

    def record_command(self, command: MutationCommand) -> None:
        self._commands.append(command)
        self._append(_COMMANDS_NAME, command.to_dict())

    def record_snapshot(self, snapshot: dict) -> None:
        self._append(_SNAPSHOTS_NAME, snapshot)

    def _append(self, name: str, record: dict) -> None:
        with open(self.directory / name, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")

    def write_outcome(self, payload: dict) -> None:
        write_sidecar_text(canonical_json(payload) + "\n", self.directory / _OUTCOME_NAME)

    # ------------------------------------------------------------- reading

    @staticmethod
    def read_manifest(directory: str | Path) -> dict:
        path = Path(directory) / _MANIFEST_NAME
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError as error:
            raise ValueError(f"{directory} is not a session directory (no {_MANIFEST_NAME})") from error
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON: {error}") from error

    @staticmethod
    def read_commands(directory: str | Path) -> list[MutationCommand]:
        """The recorded commands in ``(tick, seq)`` order, minus a torn final line."""
        path = Path(directory) / _COMMANDS_NAME
        if not path.exists():
            return []
        # The last piece is "" after a complete final line, else a torn append.
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        commands = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: not valid JSON: {error}") from error
            commands.append(MutationCommand.from_dict(record))
        return sorted(commands, key=lambda command: (command.tick, command.seq))

    @staticmethod
    def read_outcome(directory: str | Path) -> dict | None:
        path = Path(directory) / _OUTCOME_NAME
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: not valid JSON: {error}") from error


# ----------------------------------------------------------------- session


class SimulationSession:
    """One live fleet: engine + stepper thread + recorder.

    ``pace_seconds_per_tick`` throttles the stepper against the wall clock
    (0.0 = as fast as possible); it affects only how quickly simulation time
    passes, never what happens in it.  ``chunk_ticks`` bounds how long the
    engine lock is held per advance -- the granularity at which status
    queries and mutations interleave with the run.
    """

    def __init__(
        self,
        manifest: dict,
        directory: str | Path,
        pace_seconds_per_tick: float = 0.0,
        chunk_ticks: int = 60,
        snapshot_every_ticks: int | None = 600,
    ) -> None:
        if chunk_ticks < 1:
            raise ValueError("chunk_ticks must be at least 1")
        if pace_seconds_per_tick < 0:
            raise ValueError("pace_seconds_per_tick must be non-negative")
        self.manifest = manifest
        self.scenario = service_scenario(manifest)
        self.telemetry = Telemetry()
        self.recorder = SessionRecorder(directory)
        self.recorder.write_manifest(manifest)
        self.engine = build_service_engine(manifest, self.telemetry)
        self.horizon_ticks = first_tick_at_or_after(self.scenario.horizon_seconds)
        self.chunk_ticks = int(chunk_ticks)
        self.pace_seconds_per_tick = float(pace_seconds_per_tick)
        self.snapshot_every_ticks = snapshot_every_ticks
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._pause = threading.Event()
        self._horizon_reached = threading.Event()
        self._thread: threading.Thread | None = None
        self._seq = 0
        self._last_snapshot_tick = 0
        self._result: dict | None = None

    # ------------------------------------------------------------- stepping

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("session already started")
        self._thread = threading.Thread(target=self._run_loop, name="fleet-stepper", daemon=True)
        self._thread.start()

    def _run_loop(self) -> None:
        while not self._stop.is_set():
            if self._pause.is_set():
                time.sleep(0.01)
                continue
            with self._lock:
                if self._pause.is_set():  # re-check under the lock: a pause
                    continue  # raced with our unlocked check above
                if self._result is not None:
                    break
                remaining = self.horizon_ticks - self.engine.current_tick
                if remaining <= 0:
                    self._horizon_reached.set()
                    break
                chunk = min(self.chunk_ticks, remaining)
                # New node incarnations capture the ambient hub at
                # construction, so the stepper must run under activation.
                with telemetry_runtime.activate(self.telemetry):
                    self.engine.step(chunk)
                self._maybe_snapshot()
            if self.pace_seconds_per_tick > 0:
                time.sleep(self.pace_seconds_per_tick * chunk)
        self._horizon_reached.set()

    def _maybe_snapshot(self) -> None:
        cadence = self.snapshot_every_ticks
        if cadence is None:
            return
        tick = self.engine.current_tick
        if tick - self._last_snapshot_tick >= cadence:
            self._last_snapshot_tick = tick
            self.recorder.record_snapshot(self.engine.fleet_snapshot())

    def wait_until_done(self, timeout: float | None = None) -> bool:
        """Block until the stepper reaches the horizon (or stops)."""
        return self._horizon_reached.wait(timeout)

    def pause(self) -> None:
        """Freeze simulation time at the next boundary.

        Returns only once any in-flight chunk has committed: after the flag
        is set, taking the lock barriers against the stepper, and the
        stepper re-checks the flag under the lock before stepping again.
        """
        self._pause.set()
        with self._lock:
            pass

    def resume(self) -> None:
        self._pause.clear()

    @property
    def paused(self) -> bool:
        return self._pause.is_set()

    # ------------------------------------------------------------ mutations

    def submit_mutation(self, payload: Mapping[str, object]) -> dict:
        """Parse, apply at the next boundary, record and return the command.

        A malformed command raises :class:`MutationError`; a well-formed one
        arriving at or past the horizon, or after :meth:`finish`, raises
        :class:`MutationRefused` and records nothing.
        """
        kind, params = parse_mutation(payload)
        with self._lock:
            if self._result is not None or self.engine.finished:
                raise MutationRefused("the session has already finished")
            if self.engine.current_tick >= self.horizon_ticks:
                raise MutationRefused(
                    f"the session has reached its horizon (tick {self.horizon_ticks}); "
                    "a command there cannot take effect"
                )
            apply_mutation(self.engine, kind, params)
            command = MutationCommand(
                tick=self.engine.current_tick, seq=self._seq, kind=kind, params=params
            )
            self._seq += 1
            self.recorder.record_command(command)
        return command.to_dict()

    # ------------------------------------------------------------- queries

    def fleet_status(self) -> dict:
        with self._lock:
            snapshot = self.engine.fleet_snapshot()
            snapshot.update(
                {
                    "paused": self.paused,
                    "horizon_ticks": self.horizon_ticks,
                    "mutations": self._seq,
                    "policy": self.manifest.get("policy", "none"),
                }
            )
            return snapshot

    def node_statuses(self) -> list[dict]:
        with self._lock:
            return self.engine.node_snapshots()

    def node_status(self, node_id: int) -> dict:
        statuses = self.node_statuses()
        if not 0 <= node_id < len(statuses):
            raise KeyError(node_id)
        return statuses[node_id]

    def forecasts(self) -> dict:
        with self._lock:
            tick = self.engine.current_tick
            nodes = self.engine.node_snapshots()
        return {
            "tick": tick,
            "nodes": [
                {
                    "node_id": status["node_id"],
                    "state": status["state"],
                    "alarm": status["alarm"],
                    "predicted_ttf_seconds": status["predicted_ttf_seconds"],
                }
                for status in nodes
            ],
        }

    def schedule(self) -> dict:
        """The rejuvenation picture: who is draining, restarting, alarmed."""
        with self._lock:
            tick = self.engine.current_tick
            coordinator = self.engine.coordinator.describe()
            nodes = self.engine.node_snapshots()
        return {
            "tick": tick,
            "coordinator": coordinator,
            "draining": [s["node_id"] for s in nodes if s["state"] == "draining"],
            "restarting": [s["node_id"] for s in nodes if s["state"] == "restarting"],
            "alarmed": [s["node_id"] for s in nodes if s["alarm"]],
        }

    def availability(self) -> dict:
        with self._lock:
            return self.engine.status.snapshot_dict()

    def commands(self) -> list[dict]:
        with self._lock:
            return [command.to_dict() for command in self.recorder.commands]

    # -------------------------------------------------------------- finish

    def finish(self) -> dict:
        """Stop stepping, freeze the outcome and persist the session artifacts.

        Idempotent: the first call computes and writes ``outcome.json`` and
        the telemetry sidecar; later calls return the same result.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=60.0)
        with self._lock:
            if self._result is None:
                with telemetry_runtime.activate(self.telemetry):
                    outcome = self.engine.finish()
                self._result = {
                    "final_tick": self.engine.current_tick,
                    "outcome": outcome.to_dict(),
                    "telemetry_digest": self.telemetry.digest(),
                }
                self.recorder.write_outcome(self._result)
                write_sidecar(self.telemetry, self.recorder.directory / _TRACE_NAME)
            return dict(self._result)

    @property
    def finished(self) -> bool:
        return self._result is not None


# ------------------------------------------------------------------ replay


def replay_session(directory: str | Path) -> dict:
    """Re-execute a recorded session deterministically, without a server.

    Rebuilds the engine from ``manifest.json``, steps to each command's
    stamped tick, re-applies it, runs out to the recorded final tick and
    returns the same ``{"final_tick", "outcome", "telemetry_digest"}``
    payload the live session wrote -- byte-for-byte equal (as canonical
    JSON) for a faithful log, whatever the live run's wall-clock timing was.
    """
    manifest = SessionRecorder.read_manifest(directory)
    commands = SessionRecorder.read_commands(directory)
    recorded = SessionRecorder.read_outcome(directory)
    scenario = service_scenario(manifest)
    if recorded is not None:
        final_tick = int(recorded["final_tick"])
    else:
        final_tick = first_tick_at_or_after(scenario.horizon_seconds)
    telemetry = Telemetry()
    engine = build_service_engine(manifest, telemetry)
    with telemetry_runtime.activate(telemetry):
        for command in commands:
            if command.tick > final_tick:
                raise ValueError(
                    f"command log is inconsistent: command at tick {command.tick} "
                    f"past the recorded final tick {final_tick}"
                )
            if command.tick > engine.current_tick:
                engine.step(command.tick - engine.current_tick)
            apply_mutation(engine, command.kind, command.params)
        if final_tick > engine.current_tick:
            engine.step(final_tick - engine.current_tick)
        outcome = engine.finish()
    return {
        "final_tick": final_tick,
        "outcome": outcome.to_dict(),
        "telemetry_digest": telemetry.digest(),
    }
