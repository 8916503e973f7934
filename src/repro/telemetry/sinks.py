"""Trace serialization sinks: canonical JSONL lines, digest, atomic sidecar.

Canonical form: one JSON object per line, sorted keys, compact separators,
``allow_nan=False`` -- the same discipline as the ``RunResult`` envelope and
the sweep content keys.  Record order is fixed (meta, events in recording
order, counters, gauges, histograms each sorted by channel/name, digest
last), so a trace's bytes are a pure function of what the run recorded.

The digest is the sha256 over the ``sim``-channel lines only (each including
its trailing newline).  ``engine``-channel lines ride in the sidecar but stay
out of the digest, which is what lets the event-driven and per-second engines
agree on a digest while reporting different mechanics.  ``profile``-channel
data never reaches the sidecar at all.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.telemetry.hub import PROFILE, SIM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.hub import Telemetry

__all__ = [
    "canonical_json",
    "trace_records",
    "trace_lines",
    "trace_text",
    "trace_digest",
    "write_sidecar",
    "read_sidecar",
    "sidecar_digest",
    "sidecar_path_for",
    "envelope_path_for",
]

#: Sidecar files live next to their envelope: ``name.json`` + ``name.trace.jsonl``.
SIDECAR_SUFFIX = ".trace.jsonl"

_DIGEST_ALGO = "sha256"


def canonical_json(payload: object) -> str:
    """The package's one canonical JSON text: sorted keys, no spaces, no NaN/Inf.

    Trace lines and their digest, sweep content keys, fleet outcomes, service
    session files, response bodies and replay output are all this encoding,
    so any two equal payloads serialize to the same bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest_view(record: dict) -> dict:
    """The digest-bound form of a sim-channel record.

    ``dropped_events`` counts sidecar-channel (engine/profile) overflow --
    sim events are never dropped -- so two runs with identical sim streams
    must digest equally however much engine noise the cap discarded.
    """
    if record.get("type") == "meta" and "dropped_events" in record:
        return {key: value for key, value in record.items() if key != "dropped_events"}
    return record


def trace_records(telemetry: "Telemetry") -> Iterator[dict]:
    """Yield the trace records in canonical order (without the digest line)."""
    meta: dict[str, object] = {"type": "meta", "channel": SIM, "schema": 1}
    if telemetry.meta is not None:
        meta.update(telemetry.meta)
    meta["dropped_events"] = telemetry.dropped_events
    yield meta
    # Stable sort by (tick, run): two engines may interleave *different runs*
    # differently within a tick (heap order vs node order), but a single
    # run's events at a single tick always come from one deterministic code
    # path, so this normalization makes the byte order engine-invariant.
    events = sorted(
        (event for event in telemetry.events if event.channel != PROFILE),
        key=lambda event: (event.tick, event.run),
    )
    for event in events:
        yield {
            "type": "event",
            "channel": event.channel,
            "kind": event.kind,
            "tick": event.tick,
            "run": event.run,
            "data": dict(event.data),
        }
    for (channel, name), value in sorted(telemetry.counters.items()):
        if channel == PROFILE:
            continue
        yield {"type": "counter", "channel": channel, "name": name, "value": value}
    for (channel, name), value in sorted(telemetry.gauges.items()):
        if channel == PROFILE:
            continue
        yield {"type": "gauge", "channel": channel, "name": name, "value": value}
    for (channel, name), histogram in sorted(telemetry.histograms.items()):
        if channel == PROFILE:
            continue
        yield {"type": "histogram", "channel": channel, "name": name, **histogram.as_dict()}


def trace_lines(telemetry: "Telemetry") -> list[str]:
    """Canonical JSONL lines (no trailing newlines), digest line last."""
    lines = []
    hasher = hashlib.sha256()
    for record in trace_records(telemetry):
        lines.append(canonical_json(record))
        if record["channel"] == SIM:
            hasher.update(canonical_json(_digest_view(record)).encode("utf-8"))
            hasher.update(b"\n")
    lines.append(
        canonical_json(
            {
                "type": "digest",
                "channel": SIM,
                "algo": _DIGEST_ALGO,
                "value": hasher.hexdigest(),
            }
        )
    )
    return lines


def trace_text(telemetry: "Telemetry") -> str:
    """The full sidecar contents, newline-terminated."""
    return "\n".join(trace_lines(telemetry)) + "\n"


def trace_digest(telemetry: "Telemetry") -> str:
    """sha256 over the canonical ``sim``-channel lines of the trace."""
    hasher = hashlib.sha256()
    for record in trace_records(telemetry):
        if record["channel"] == SIM:
            hasher.update(canonical_json(_digest_view(record)).encode("utf-8"))
            hasher.update(b"\n")
    return hasher.hexdigest()


def sidecar_path_for(envelope_path: str | Path) -> Path:
    """The trace sidecar path next to a ``RunResult`` envelope path."""
    envelope_path = Path(envelope_path)
    return envelope_path.with_name(envelope_path.stem + SIDECAR_SUFFIX)


def envelope_path_for(sidecar_path: str | Path) -> Path:
    """Inverse of :func:`sidecar_path_for` (for orphan detection)."""
    sidecar_path = Path(sidecar_path)
    name = sidecar_path.name
    if not name.endswith(SIDECAR_SUFFIX):
        raise ValueError(f"not a trace sidecar path: {sidecar_path}")
    return sidecar_path.with_name(name[: -len(SIDECAR_SUFFIX)] + ".json")


def write_sidecar_text(text: str, path: str | Path) -> Path:
    """Atomically write pre-serialized sidecar text (scratch file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    scratch.write_text(text, encoding="utf-8")
    scratch.replace(path)
    return path


def write_sidecar(telemetry: "Telemetry", path: str | Path) -> str:
    """Serialize and atomically write the sidecar; returns the digest."""
    lines = trace_lines(telemetry)
    write_sidecar_text("\n".join(lines) + "\n", path)
    return json.loads(lines[-1])["value"]


def read_sidecar(path: str | Path) -> list[dict]:
    """Parse a sidecar back into its records (digest line included)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{number}: not valid JSON: {error}") from error
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError(f"{path}:{number}: not a trace record")
            records.append(record)
    return records


def sidecar_digest(path: str | Path) -> str | None:
    """The recorded digest of a sidecar file, or ``None`` if absent/corrupt."""
    try:
        records = read_sidecar(path)
    except (OSError, ValueError):
        return None
    for record in reversed(records):
        if record.get("type") == "digest" and record.get("algo") == _DIGEST_ALGO:
            value = record.get("value")
            return value if isinstance(value, str) else None
    return None
