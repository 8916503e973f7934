"""Benchmark of the aging-prediction reproduction, driven from outside ``src/``.

Run from the repository root::

    python3 perfbench/run.py --workload cluster_small --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

``cluster_small``
    ``api.expand_sweep("cluster", {"seed": "A,B", "scale": "small"})`` run
    by ``api.run_points(..., workers=1)`` into a fresh ``ResultStore``: two
    points of ``repro run cluster --scale small``, at the S-th and S+1-th
    seeds that are not known counterexamples (see ``fleet_seeds``).  Its
    queries are the post-sweep read path, ``repro collect``'s
    ``collect_results`` over the finished store.  A researcher runs it once;
    the benchmark repeats it :data:`COLLECT_SAMPLES` times as a sampling
    probe, so that its tail latency has enough samples.
``fluid_wide``
    ``ClusterScenario.fast()`` widened to 1000 nodes at 40 emulated browsers
    each, under rolling predictive rejuvenation on the fluid engine, with a
    restart budget of 334 and ``cluster_seed`` S.  Its queries are the engine
    work of a dashboard refresh at every 30-tick chunk (see ``worker.py``).
``service_live``
    ``repro serve --preset fast --policy rolling_predictive --engine event
    --pace-ms 0.25 --seed S``, driven by staggered copies of the service's
    dashboard and a mutation probe (see ``live.py``); ``--seconds`` sizes
    the session horizon.

Every run is cold: the work happens in fresh child processes, in fresh
directories under ``.perfbench/runs/`` that are removed afterwards.
``setup_s`` is the median of :data:`SETUP_SAMPLES` cold set-ups: the one
before the measured work and fresh processes that stop once ready.

The process doing the work runs pinned to one CPU beside a speed probe
(``speed.py``), and the benchmark itself keeps to another CPU when there is
one.  Timings of the work are reported in seconds at the probe's reference
speed, so that the speed swings of a shared host cancel; the raw wall times
of set-up and run are printed beside them.  ``setup_s`` and ``run_s`` take
their speed from the probe.  The query latencies of ``cluster_small`` and
``fluid_wide`` take theirs from the probe's kernel timed by the worker in its
own thread between the queries, and leave out the queries the probe ran
during.  ``service_live``'s query latencies are reported as measured: they
are mostly a fixed TCP timer, not computation.
With ``--trace 0`` the run prints the end-to-end metrics.  With ``--trace 1`` it
runs the workload untraced, then again with a span around every call into
a ``repro`` layer (``tracer.py``), checks that both runs simulated the same
outcome, prints the per-layer tree and reports the per-layer metrics; the
spans are written to ``.perfbench/traces/``.

A failed correctness check is printed to stderr and the run exits 1.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from live import HORIZON_PER_SECOND, PACE_MS, run_service, time_setup
from procs import LineReader, reap, spawn
from speed import REFERENCE_S, SpeedProbe, SpeedRecord
from tracer import load_spans, self_times, span_tree

HERE = Path(__file__).resolve().parent
#: Cold set-ups per ``--trace 0`` run, the measured one included.  A set-up
#: is under a second for the sweep but 4-10 s, mostly M5P fit, for the other
#: two, which keeps them to two so that a run stays under a minute.
SETUP_SAMPLES = {"cluster_small": 7, "fluid_wide": 2, "service_live": 2}
#: Times ``collect_results`` reads the finished sweep's store back.
COLLECT_SAMPLES = 1000
#: Percentile reported as ``query_tail_ms``: of p90, p95 and p99, the highest
#: with at least ten samples beyond it at the workload's size (1000 collects,
#: 240 fluid refreshes, less those the speed probe ran during; about 190
#: service refreshes and mutations in a 10 s session).
TAIL_PERCENTILE = {"cluster_small": 95, "fluid_wide": 90, "service_live": 90}
WORKER_DEADLINE_S = 170.0
REPLAY_DEADLINE_S = 120.0
#: ``cluster_seed``\ s of the fast three-node fleet at which the rolling
#: predictive fleet does not win (it suffers 400-480 s of full outage), found
#: by running every seed below ``FLEET_SEED_SPACE``.  They are real
#: counterexamples to the paper's claim at this scale, not noise.  The sweep
#: draws its seeds from the others, so its rolling-wins check guards against
#: new ones.
ROLLING_COUNTEREXAMPLES = (4, 89, 90)
FLEET_SEED_SPACE = 160
#: The three fleets of a ``cluster`` point and the outcome fields that must
#: repeat exactly for a seed.
POLICIES = ("no_rejuvenation", "time_based", "rolling_predictive")
OUTCOME_KEYS = ("availability", "crashes", "rejuvenations")
#: Outcome counts summed over every fleet a workload operates.
COUNT_KEYS = ("crashes", "rejuvenations", "served_requests")


# ----------------------------------------------------------------- helpers


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def reference_kernel_ms() -> float:
    """Median of three timings of a fixed pure-Python loop (host speed probe)."""
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(600_000):
            total += value * value % 7
        timings.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(timings)


class Context:
    """Where one benchmark run keeps its files and how it starts children."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: int) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.directory = root / ".perfbench" / "runs" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True)
        self._fresh = 0
        # A traced run reports no end-to-end metric, so it sets up once.
        self.extra_setups = 0 if trace else SETUP_SAMPLES[workload] - 1
        # The work and its speed probe share the last CPU; the benchmark
        # itself, the live session's client, keeps to the first.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[-1]
        self.client_cpu = self.cpus[0]
        self.env = dict(os.environ)
        self.env.update(
            {"PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0", "TMPDIR": str(self.directory)}
        )

    def fresh_dir(self, name: str) -> Path:
        self._fresh += 1
        path = self.directory / f"{name}-{self._fresh}"
        path.mkdir()
        return path

    def worker(self, *arguments: str) -> dict:
        """Run ``worker.py`` to completion: set-up interval, its result, peak memory."""
        argv = [sys.executable, "-u", str(HERE / "worker.py"), *arguments]
        spawned = time.perf_counter()
        process = spawn(argv, self.env, self.root, self.cpu)
        try:
            reader = LineReader(process)
            ready = None
            payload = None
            deadline = spawned + WORKER_DEADLINE_S
            while (line := reader.readline(deadline)) is not None:
                if line.startswith("ready "):
                    ready = float(line[len("ready ") :])
                elif line.startswith("result "):
                    payload = json.loads(line[len("result ") :])
            peak_rss_mb = reap(process)
        finally:
            if process.returncode is None:
                process.kill()
                reap(process)
        if process.returncode != 0 or ready is None or payload is None:
            raise RuntimeError(f"worker {' '.join(arguments)} failed (exit {process.returncode})")
        return {"setup": [spawned, ready], "payload": payload, "peak_rss_mb": peak_rss_mb}

    def setups(self, first: list[float], spans: Path | None, again) -> list[list[float]]:
        """``first`` and, untraced, the intervals of fresh set-ups by ``again()``."""
        if spans is not None:
            return [first]
        return [first] + [again() for _ in range(self.extra_setups)]

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


# --------------------------------------------------------------- workloads


def fleet_seeds(seed: int, count: int) -> list[int]:
    """The three-node fleet's cluster seeds for benchmark seed ``seed``.

    The ``seed``-th and following seeds that are not known counterexamples.
    """
    seeds = [value for value in range(FLEET_SEED_SPACE) if value not in ROLLING_COUNTEREXAMPLES]
    return [seeds[(seed + offset) % len(seeds)] for offset in range(count)]


def cluster_small(ctx: Context, spans: Path | None) -> dict:
    """A cold two-point sweep, then its results read back."""
    trace_args = ["--spans", str(spans)] if spans else []
    seeds = ",".join(str(value) for value in fleet_seeds(ctx.seed, 2))
    # The traced pass takes no read-back: its result would go unused.
    collect = "0" if spans else str(COLLECT_SAMPLES)
    store = ctx.fresh_dir("store")
    main = ctx.worker("cluster_small", "--seeds", seeds, "--store", str(store), "--collect", collect, *trace_args)
    setups = ctx.setups(
        main["setup"],
        spans,
        lambda: ctx.worker(
            "cluster_small", "--seeds", seeds, "--store", str(ctx.fresh_dir("store")), "--setup-only"
        )["setup"],
    )
    payload = main["payload"]
    points = payload["points"]
    ran = [point for point in points if point["status"] == "ran"]
    checks = [
        f"{point['label']}: status {point['status']} ({point['error']})"
        for point in points
        if point["status"] != "ran"
    ]
    for point in ran:
        if point["metrics"]["rolling_wins"] is not True:
            checks.append(f"{point['label']}: the rolling predictive fleet did not win")
        if point["metrics"]["rolling_predictive.full_outage_seconds"] != 0:
            checks.append(f"{point['label']}: the rolling fleet had a full outage")
    collect_checks = []
    if payload["collected"] is not None:
        num_runs, skipped = payload["collected"]
        if num_runs != len(points) or skipped:
            collect_checks.append(f"collect read {num_runs} of {len(points)} runs, skipped {skipped}")
    checks += collect_checks
    fleets = [point["metrics"] for point in ran]
    return {
        "setups": setups,
        "run": payload["run"],
        "queries": payload["queries"],
        "samples": payload["samples"],
        "rolling_availability": statistics.fmean(
            metrics["rolling_predictive.availability"] for metrics in fleets
        ),
        "peak_rss_mb": main["peak_rss_mb"],
        "inputs": f"cluster seeds {seeds}",
        "outcome": [
            {policy: [metrics[f"{policy}.{key}"] for key in OUTCOME_KEYS] for policy in POLICIES}
            for metrics in fleets
        ],
        # Each point is one sweep point plus its three fleet runs.
        "attempted": 4 * len(points) + len(payload["queries"]),
        "failed": 4 * (len(points) - len(ran)) + len(collect_checks),
        "checks": checks,
        "counts": {
            key: sum(metrics[f"{policy}.{key}"] for metrics in fleets for policy in POLICIES)
            for key in COUNT_KEYS
        },
        "point_walls": [point["wall_clock_seconds"] for point in ran],
        "envelope_bytes": payload["envelope_bytes"],
    }


def fluid_wide(ctx: Context, spans: Path | None) -> dict:
    """Train, build the 1000-node fluid fleet, operate it with status reads."""
    trace_args = ["--spans", str(spans)] if spans else []
    main = ctx.worker("fluid_wide", "--seed", str(ctx.seed), *trace_args)
    setups = ctx.setups(
        main["setup"], spans, lambda: ctx.worker("fluid_wide", "--seed", str(ctx.seed), "--setup-only")["setup"]
    )
    payload = main["payload"]
    outcome = payload["outcome"]
    checks = []
    if outcome["full_outage_seconds"] != 0:
        checks.append(f"the fluid fleet had {outcome['full_outage_seconds']} s of full outage")
    return {
        "setups": setups,
        "run": payload["run"],
        "queries": payload["queries"],
        "samples": payload["samples"],
        "rolling_availability": outcome["availability"],
        "peak_rss_mb": main["peak_rss_mb"],
        "inputs": f"cluster seed {ctx.seed}",
        "outcome": [outcome[key] for key in OUTCOME_KEYS],
        "attempted": 1 + len(payload["queries"]),
        "failed": 0,
        "checks": checks,
        "counts": {key: outcome[key] for key in COUNT_KEYS},
    }


def service_live(ctx: Context, spans: Path | None) -> dict:
    """A paced live session under the dashboards and mutations, then its replay."""
    horizon = HORIZON_PER_SECOND * ctx.seconds

    def serve_argv(session: Path) -> list[str]:
        serve_args = [
            "--preset", "fast", "--kind", "memory", "--policy", "rolling_predictive",
            "--engine", "event", "--pace-ms", str(PACE_MS), "--seed", str(ctx.seed), "--port", "0",
            "--horizon-seconds", str(horizon), "--session-dir", str(session),
        ]  # fmt: skip
        if spans:
            return [sys.executable, "-u", str(HERE / "worker.py"), "serve", "--spans", str(spans), "--", *serve_args]
        return [sys.executable, "-u", "-m", "repro", "serve", *serve_args]

    session = ctx.fresh_dir("session")
    raw = run_service(serve_argv(session), ctx.env, ctx.root, horizon, ctx.cpu)
    checks = [f"request failed: {error}" for error in raw["errors"]]
    if raw["final_tick"] != horizon:
        checks.append(f"the session finished at tick {raw['final_tick']}, not {horizon}")

    started = time.perf_counter()
    replay = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--replay", str(session)],
        cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=REPLAY_DEADLINE_S,
    )  # fmt: skip
    replay_s = time.perf_counter() - started
    replay_ok = replay.returncode == 0 and "replay matches recorded outcome" in replay.stderr
    if not replay_ok:
        checks.append(f"repro serve --replay failed (exit {replay.returncode}): {replay.stderr.strip()}")
    outcome = json.loads((session / "outcome.json").read_text())["outcome"]
    setups = ctx.setups(
        raw["setup"], spans, lambda: time_setup(serve_argv(ctx.fresh_dir("session")), ctx.env, ctx.root, ctx.cpu)
    )
    return {
        "setups": setups,
        # The paced stepper sleeps PACE_MS a tick: waiting, not computing.
        "run": [[*raw["run"], PACE_MS / 1000.0 * horizon]],
        # A query is a whole dashboard refresh or one mutation.
        "latencies_s": raw["samples"]["refreshes"] + raw["samples"]["mutations"],
        "rolling_availability": outcome["availability"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "inputs": f"cluster seed {ctx.seed}, horizon {horizon} s",
        "attempted": raw["requests"] + 1,
        "failed": len(raw["errors"]) + (0 if replay_ok else 1),
        "checks": checks,
        "counts": {key: outcome[key] for key in COUNT_KEYS},
        "raw": raw,
        "horizon": horizon,
        "replay_s": replay_s,
        "session_bytes": sum(path.stat().st_size for path in session.iterdir() if path.is_file()),
    }


WORKLOADS = {
    "cluster_small": cluster_small,
    "fluid_wide": fluid_wide,
    "service_live": service_live,
}


# ------------------------------------------------------------------ metrics


def add_timings(result: dict, record: SpeedRecord) -> None:
    """Add the workload's timings to ``result``: at the reference speed, and raw."""
    result["setup_s"] = statistics.median(record.seconds(*interval) for interval in result["setups"])
    result["raw_setup_s"] = statistics.median(end - begin for begin, end in result["setups"])
    result["run_s"] = sum(record.seconds(*interval) for interval in result["run"])
    result["raw_run_s"] = sum(interval[1] - interval[0] for interval in result["run"])
    if "queries" in result:
        # The worker timed the probe's kernel in its own thread between the
        # queries: those samples set each query's speed.  A query the probe
        # ran during would time the probe too, so it is left out.
        beside = SpeedRecord(result["samples"])
        result["queries_ms"] = [
            record.seconds(begin, end, speed=beside.speed(begin, end)) * 1000.0
            for begin, end in result["queries"]
            if not record.disturbed(begin, end)
        ]
    else:
        result["queries_ms"] = [value * 1000.0 for value in result["latencies_s"]]


def end_to_end(workload: str, result: dict) -> dict[str, float]:
    return {
        "setup_s": result["setup_s"],
        "run_s": result["run_s"],
        "rolling_availability": result["rolling_availability"],
        "peak_rss_mb": result["peak_rss_mb"],
        "query_p50_ms": statistics.median(result["queries_ms"]),
        "query_tail_ms": percentile(result["queries_ms"], TAIL_PERCENTILE[workload]),
    }


def phases(result: dict) -> list[tuple[str, float, float]]:
    """The live session's set-up and run phases on the shared monotonic clock."""
    raw = result["raw"]
    return [("setup", *raw["setup"]), ("run", *raw["run"])]


def adopt(spans: list, phases: list[tuple[str, float, float]]) -> list:
    """Re-parent a server's root spans under phase spans by their start time."""
    adopted = [[name, begin, end, -1] for name, begin, end in phases]
    offset = len(adopted)
    for name, begin, end, parent in spans:
        if parent >= 0:
            parent += offset
        else:
            parent = next(
                (index for index, (_, low, high) in enumerate(phases) if low <= begin < high), -1
            )
        adopted.append([name, begin, end, parent])
    return adopted


def layer_metrics(untraced: dict, traced: dict, spans: list, counts: dict) -> dict:
    """Per-layer metrics of the traced run.

    Only the layers the workload reaches are returned; the caller reports
    the others as 0 (no calls, no busy time).
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for (name, begin, end, _), self_s in zip(spans, self_times(spans)):
        total[name] = total.get(name, 0.0) + end - begin
        own[name] = own.get(name, 0.0) + self_s

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    policies = ("none", "time_based", "rolling")
    fleet_s = {policy: total.get(f"cluster.event.fleet.{policy}", 0.0) for policy in policies}
    metrics = {
        "testbed.traces_s": total.get("testbed.traces", 0.0),
        "testbed.sim_s_per_s": ratio(counts.get("testbed.sim_seconds", 0.0), total.get("testbed.traces", 0.0)),
        "core.dataset_s": total.get("core.dataset", 0.0),
        "core.dataset_rows": counts.get("core.dataset_rows", 0),
        "ml.fit_s": total.get("ml.fit", 0.0),
        "ml.fits": counts.get("ml.fits", 0),
        "ml.fit_recipes": sum(1 for key in counts if key.startswith("ml.recipe.")),
        "ml.leaves": counts.get("ml.leaves", 0),
        "ml.predict_s": total.get("ml.predict", 0.0),
        "ml.predict_rows": counts.get("ml.predict_rows", 0),
        "ml.predict_rows_per_s": ratio(counts.get("ml.predict_rows", 0), total.get("ml.predict", 0.0)),
        **{f"cluster.event.fleet_s.{policy}": fleet_s[policy] for policy in policies},
        "cluster.event.node_s_per_s": ratio(
            counts.get("cluster.event.node_seconds", 0.0), sum(fleet_s.values())
        ),
        "cluster.event.self_s": sum(own.get(f"cluster.event.fleet.{policy}", 0.0) for policy in policies),
        "cluster.fluid.step_s": total.get("cluster.fluid.step", 0.0),
        "cluster.fluid.self_s": own.get("cluster.fluid.step", 0.0),
        "cluster.fluid.node_s_per_s": ratio(
            counts.get("cluster.fluid.node_seconds", 0.0), total.get("cluster.fluid.step", 0.0)
        ),
        **{f"cluster.{key}": value for key, value in traced["counts"].items()},
        "bench.trace_overhead": ratio(traced["setup_s"] + traced["run_s"], untraced["setup_s"] + untraced["run_s"]),
    }
    if "point_walls" in traced:
        metrics["api.point_s"] = statistics.fmean(traced["point_walls"])
        metrics["api.overhead_s"] = traced["raw_run_s"] - sum(traced["point_walls"])
        metrics["api.envelope_bytes"] = traced["envelope_bytes"]
    if "raw" in traced:
        raw = traced["raw"]
        metrics.update(
            {
                "service.boot_s": raw["boot_s"],
                "service.first_response_s": traced["raw_setup_s"] - raw["boot_s"],
                "service.ticks_per_s": raw["ticks_per_s"],
                "service.compute_s": traced["raw_run_s"] - PACE_MS / 1000.0 * traced["horizon"],
                **{
                    f"service.latency_p50_ms.{key}": statistics.median(samples) * 1000.0
                    for key, samples in raw["samples"].items()
                    if key != "refreshes"
                },
                "service.requests": raw["requests"],
                "service.errors": len(raw["errors"]),
                "service.generator_late_ms": statistics.fmean(raw["lateness"]) * 1000.0,
                "service.shutdown_s": raw["shutdown_s"],
                "service.replay_s": traced["replay_s"],
                "service.session_bytes": traced["session_bytes"],
            }
        )
    return metrics


def report(title: str, entries: list[dict], values: dict) -> dict:
    """Print ``values`` as declared in ``BENCHMARK.json``; return the result map."""
    if set(values) != {entry["name"] for entry in entries}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {e['name'] for e in entries})} are not as declared")
    print(f"{title}:")
    for entry in entries:
        value = values[entry["name"]]
        print(f"  {entry['name']:<38} {value:>14.6f} {entry['unit']:<8} ({entry['better']} is better)")
    return {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in entries}


def print_tree(spans: list, traced: dict) -> None:
    bases = {"setup": ("raw setup_s", traced["raw_setup_s"]), "run": ("raw run_s", traced["raw_run_s"])}
    print(f"{'span (layer call path)':<58}{'calls':>7}{'total s':>10}{'self s':>10}  share")
    for path, (calls, total, own) in span_tree(spans).items():
        label = "  " * (len(path) - 1) + path[-1]
        share = ""
        if path[0] in bases:
            metric, base = bases[path[0]]
            share = f"{100.0 * total / base:5.1f}% of {metric}"
        print(f"{label:<58}{calls:>7}{total:>10.3f}{own:>10.3f}  {share}")


# ------------------------------------------------------------------ ledger


def check_ledger(root: Path, workload: str, inputs: str, outcome: object) -> list[str]:
    """Seeded outcomes must repeat exactly: compare with earlier runs here."""
    path = root / ".perfbench" / "outcomes.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload} at {inputs}"
    if key in ledger and ledger[key] != outcome:
        return [f"{key}: outcome {outcome} differs from an earlier run's {ledger[key]}"]
    ledger[key] = outcome
    scratch = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    scratch.write_text(json.dumps(ledger, sort_keys=True, indent=1))
    scratch.replace(path)
    return []


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; the same seed gives the same inputs")
    parser.add_argument(
        "--seconds", type=int, default=10, help="sizes the live session's horizon (the other workloads are fixed)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: add the traced per-layer run")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    declared = json.loads((root / "BENCHMARK.json").read_text())
    why = {entry["name"]: entry["why"] for entry in declared["workloads"]}[args.workload]
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True)

    ctx = Context(root, args.workload, args.seed, args.seconds, args.trace)
    os.sched_setaffinity(0, {ctx.client_cpu})
    kernel_start_ms = reference_kernel_ms()
    probe = SpeedProbe(ctx.cpu, ctx.env, root)
    try:
        untraced = WORKLOADS[args.workload](ctx, None)
        traced = None
        if args.trace:
            traced = WORKLOADS[args.workload](ctx, ctx.directory / "spans.json")
            spans, counts = load_spans(ctx.directory / "spans.json")
        record = probe.stop()
    finally:
        probe.kill()
        ctx.close()
    kernel_end_ms = reference_kernel_ms()
    for result in (untraced, traced):
        if result is not None:
            add_timings(result, record)

    import numpy

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}: {why}")
    print(
        f"host: {len(ctx.cpus)} of {os.cpu_count()} cpus, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, reference kernel {kernel_start_ms:.2f} ms at start, "
        f"{kernel_end_ms:.2f} ms at end"
    )
    low, middle, high = record.kernel_ms()
    print(
        f"speed probe on cpu {ctx.cpu} beside the work: {len(record.samples)} samples, kernel CPU time "
        f"{middle:.2f} ms median ({low:.2f}-{high:.2f} ms quartiles) against {REFERENCE_S * 1000.0:.2f} ms "
        f"at the reference speed; wall times were setup_s {untraced['raw_setup_s']:.4f} "
        f"(median of {len(untraced['setups'])}), run_s {untraced['raw_run_s']:.4f}"
    )
    print(f"inputs: {untraced['inputs']}")
    checks = list(untraced["checks"])
    attempted, failed = untraced["attempted"], untraced["failed"]
    queries = len(untraced["queries_ms"])
    tail = TAIL_PERCENTILE[args.workload]
    beyond = queries - math.ceil(tail / 100.0 * queries)
    dropped = len(untraced.get("queries", untraced["queries_ms"])) - queries
    print(
        f"queries: {queries} samples ({dropped} more ran while the speed probe did and are left out); "
        f"query_tail_ms is p{tail}, {beyond} beyond it"
    )
    if beyond < 10:
        print(f"perfbench: warning: only {beyond} query samples lie beyond p{tail}", file=sys.stderr)
    if "raw" in untraced:
        raw = untraced["raw"]
        print(
            f"client: {len(raw['samples']['refreshes'])} dashboard refreshes and "
            f"{len(raw['samples']['mutations'])} mutations in {raw['requests']} requests, "
            f"{len(raw['errors'])} errors, generator lateness mean "
            f"{statistics.fmean(raw['lateness']) * 1000.0:.2f} ms, max {max(raw['lateness']) * 1000.0:.2f} ms"
        )
    else:
        checks += check_ledger(root, args.workload, untraced["inputs"], untraced["outcome"])
    values = report("end-to-end metrics (tracing off)", declared["end_to_end"], end_to_end(args.workload, untraced))
    if traced is not None:
        checks += traced["checks"]
        attempted += traced["attempted"]
        failed += traced["failed"]
        if "raw" in traced:
            # Live mutations land at wall-clock-dependent ticks, so the two
            # sessions differ; each was checked against its own replay.
            spans = adopt(spans, phases(traced))
        elif traced["outcome"] != untraced["outcome"]:
            checks.append(f"traced outcome {traced['outcome']} != untraced {untraced['outcome']}")
        print("per-layer tree of the traced run:")
        print_tree(spans, traced)
        spans_path = root / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps({"spans": spans, "counts": counts}))
        print(f"spans written to {spans_path.relative_to(root)}")
        measured = {entry["name"]: 0 for entry in declared["per_layer"]}
        measured |= layer_metrics(untraced, traced, spans, counts)
        values = report("per-layer metrics (traced run)", declared["per_layer"], measured)
    for message in checks:
        print(f"perfbench: CHECK FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": not checks, "attempted": attempted, "failed": failed, "metrics": values}))
    return 1 if checks else 0


if __name__ == "__main__":
    sys.exit(main())
