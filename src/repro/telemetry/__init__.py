"""Deterministic telemetry: sim-time tracing, engine metrics, profiling hooks.

The hub (:class:`Telemetry`) accumulates counters, gauges, fixed-bucket
histograms and a structured event trace.  Everything that can influence the
canonical trace is stamped with :class:`~repro.testbed.workload.clock.SimulationClock`
ticks -- never wall clock -- so the serialized trace is bit-stable across
engines, worker counts and machines.  Three channels keep the determinism
contract honest:

``sim``
    Engine-invariant semantic telemetry (crashes, monitoring marks, node
    lifecycle, forecast refreshes, request totals).  The ``telemetry_digest``
    is the sha256 of exactly these lines, so the event-driven and per-second
    engines produce *equal digests* for the same seeded run.  The fluid
    cluster tier emits ``sim`` events at its own (aggregate) granularity and
    tags them ``tier: fluid``: fluid digests are stable across repeats and
    worker counts, and comparable to *other fluid runs* of the same seeded
    scenario -- but never to exact-engine digests, because the approximate
    tier neither replays per-request randomness nor samples per-node gauges
    above its per-node cap.
``engine``
    Deterministic but engine-specific mechanics (wake counts, fast-forward
    gap histograms, settlement batch sizes, coordinator deferrals).  Present
    in the sidecar, excluded from the digest.
``profile``
    Wall-clock profiling (sweep phase timings, cache hit/miss/quarantine,
    worker utilization).  Never written to the sidecar, never hashed --
    the non-deterministic channel, quarantined like ``wall_clock_seconds``.

Engines opt in ambiently: :func:`activate` installs a hub for the duration of
a run and ``TestbedSimulation`` / ``ClusterEngine`` capture it at
construction.  When no hub is active every instrumentation point reduces to
one ``is None`` check (zero-overhead-when-disabled, guarded by
``benchmarks/test_bench_telemetry.py``).
"""

from repro.telemetry.hub import ENGINE, PROFILE, SIM, Histogram, Telemetry, TraceEvent
from repro.telemetry.runtime import activate, active
from repro.telemetry.sinks import (
    SIDECAR_SUFFIX,
    canonical_json,
    envelope_path_for,
    read_sidecar,
    sidecar_digest,
    sidecar_path_for,
    trace_digest,
    trace_lines,
    trace_text,
    write_sidecar,
    write_sidecar_text,
)
from repro.telemetry.views import render_stats, render_trace

__all__ = [
    "ENGINE",
    "PROFILE",
    "SIDECAR_SUFFIX",
    "SIM",
    "Histogram",
    "Telemetry",
    "TraceEvent",
    "activate",
    "active",
    "canonical_json",
    "envelope_path_for",
    "read_sidecar",
    "render_stats",
    "render_trace",
    "sidecar_digest",
    "sidecar_path_for",
    "trace_digest",
    "trace_lines",
    "trace_text",
    "write_sidecar",
    "write_sidecar_text",
]
