"""The ``repro`` command-line interface over the experiment registry.

Eight subcommands, all driven by the declarative specs of
:mod:`repro.api.registry`:

``repro list``
    One line per registered experiment (name, category, description).
``repro describe <name>``
    The full parameter schema of one experiment.
``repro run <name> [--scale S] [--seed N] [--engine E] [-p key=value ...]
[--out PATH] [--timing] [--trace]``
    Run one experiment and print its summary (``--engine`` picks the
    ``cluster`` spec's fleet tier, ``event`` or ``fluid``; no other spec has
    an engine choice); ``--out`` additionally writes
    the canonical JSON envelope (``-`` for stdout).  Two invocations with
    the same parameters write byte-identical JSON unless ``--timing`` embeds
    the wall clock.  ``--trace`` runs under a telemetry hub, prints the
    run's sim-channel digest and, with a file ``--out``, writes the
    ``*.trace.jsonl`` sidecar next to the envelope.
``repro batch <glob> --out-dir DIR [common flags] [--workers N] [--trace]``
    Run every experiment whose name matches the shell-style pattern and
    write one ``<out-dir>/<name>.json`` artifact per run.
``repro sweep <glob> [--seed 1..20] [--scale small,paper] [-p k=v1,v2 ...]
--out-dir DIR [--workers N] [--trace]``
    Expand range/list parameter expressions into a deterministic grid of
    run points (see :mod:`repro.api.sweep`) and write one content-addressed
    ``<name>-<key>.json`` artifact per point.
``repro collect DIR [--out PATH]``
    Fold a directory of envelopes into one summary table / canonical JSON,
    reporting each run's trace sidecar and digest when present.  A sidecar
    without its envelope is corruption and fails the collection.
``repro trace PATH [--limit N]``
    Pretty-print a trace sidecar (or the sidecar next to an envelope path).
``repro stats PATH``
    Summarize a sidecar's counters, gauges and histograms.
``repro serve [--preset P --kind K --policy POL --port N ...] | --replay DIR``
    Run the long-lived fleet service (live status API, dashboard, scenario
    mutations; see :mod:`repro.service`), or deterministically replay a
    recorded session directory and verify its outcome.

``batch`` and ``sweep`` share the process-pool orchestrator of
:mod:`repro.api.executor` (``--workers`` defaults to the machine's cores;
``--workers 1`` is the sequential in-process path and writes byte-identical
artifacts) and the content-addressed cache of :mod:`repro.api.store`: a
point whose envelope already exists in ``--out-dir`` under the same
``(name, params, version)`` key is skipped outright.  ``--force``
recomputes and overwrites hits; ``--no-cache`` skips reading the store
altogether.  Reports, summaries and exit codes are emitted in point order
— never completion order — and a failing point never aborts the grid: all
failures are listed together and the exit code is non-zero.

Installed as the ``repro`` console script and reachable as
``python -m repro``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from repro.api.executor import PointOutcome, run_points
from repro.api.registry import get_spec, list_experiments, match_experiments, run
from repro.api.spec import CLUSTER_ENGINES, SCALES
from repro.api.store import ResultStore, collect_results, summary_json
from repro.api.sweep import batch_points, expand_sweep
from repro.service.cli import add_serve_arguments, command_serve
from repro.telemetry import (
    SIDECAR_SUFFIX,
    Telemetry,
    read_sidecar,
    render_stats,
    render_trace,
    sidecar_path_for,
    write_sidecar,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the registered experiments of the aging-prediction reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list every registered experiment")

    describe = subparsers.add_parser("describe", help="show one experiment's parameter schema")
    describe.add_argument("name", help="registered experiment name")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    _add_run_arguments(run_parser)
    run_parser.add_argument("name", help="registered experiment name")
    run_parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the result envelope as canonical JSON ('-' for stdout)",
    )
    run_parser.add_argument(
        "--trace",
        action="store_true",
        help="collect telemetry: print the sim-channel digest and, with a "
        "file --out, write the .trace.jsonl sidecar next to the envelope",
    )

    batch = subparsers.add_parser("batch", help="run every experiment matching a pattern")
    _add_run_arguments(batch)
    _add_grid_arguments(batch)
    batch.add_argument("pattern", help="shell-style pattern over experiment names, e.g. 'exp4*'")

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter grid (ranges/lists) over matching experiments"
    )
    sweep.add_argument("pattern", help="shell-style pattern over experiment names, e.g. 'exp41'")
    sweep.add_argument(
        "--scale",
        metavar="EXPR",
        help=f"scale values, e.g. 'small' or 'small,paper' (choices: {', '.join(SCALES)})",
    )
    sweep.add_argument(
        "--seed",
        metavar="EXPR",
        help="seed values: 'N', 'N1,N2,...' or an inclusive range 'A..B' / 'A..B..STEP'",
    )
    sweep.add_argument(
        "--engine",
        metavar="EXPR",
        help=f"cluster fleet tier values, e.g. 'event,fluid' (choices: {', '.join(CLUSTER_ENGINES)})",
    )
    sweep.add_argument(
        "-p",
        "--param",
        action="append",
        default=[],
        metavar="KEY=EXPR",
        help="experiment-specific sweep expression (repeatable), e.g. -p kind=memory,threads",
    )
    sweep.add_argument("--timing", action="store_true", help="embed wall clocks in the JSON")
    sweep.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded run points without executing anything",
    )
    _add_grid_arguments(sweep)

    collect = subparsers.add_parser(
        "collect", help="fold a directory of result envelopes into one summary"
    )
    collect.add_argument("directory", help="directory holding *.json run envelopes")
    collect.add_argument(
        "--out",
        metavar="PATH",
        help="also write the summary as canonical JSON ('-' for stdout)",
    )

    trace = subparsers.add_parser("trace", help="pretty-print a telemetry trace sidecar")
    trace.add_argument("path", help="a .trace.jsonl sidecar, or a result envelope next to one")
    trace.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="show at most N events (default: all)",
    )

    stats = subparsers.add_parser(
        "stats", help="summarize a trace sidecar's counters, gauges and histograms"
    )
    stats.add_argument("path", help="a .trace.jsonl sidecar, or a result envelope next to one")

    serve = subparsers.add_parser(
        "serve", help="run the live fleet service, or replay a recorded session"
    )
    add_serve_arguments(serve)
    return parser


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The common spec parameters plus the -p escape hatch for extras."""
    parser.add_argument("--scale", choices=SCALES, help="testbed scale (default: spec default)")
    parser.add_argument("--seed", type=int, help="master seed (default: spec default)")
    parser.add_argument(
        "--engine",
        choices=CLUSTER_ENGINES,
        help="cluster fleet tier (default: event); other experiments have no engine choice",
    )
    parser.add_argument(
        "-p",
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="experiment-specific parameter (repeatable), e.g. -p kind=threads",
    )
    parser.add_argument(
        "--timing",
        action="store_true",
        help="embed the wall clock in the JSON (breaks byte-for-byte stability)",
    )


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Orchestration flags shared by the grid commands (batch and sweep)."""
    parser.add_argument(
        "--trace",
        action="store_true",
        help="run executed points under telemetry and write a .trace.jsonl "
        "sidecar next to each envelope (cache hits keep their existing sidecars)",
    )
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        default="results",
        help="result store directory receiving one envelope per run (default: results/)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="worker processes (default: all cores; 1 = sequential in-process)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not serve finished points from the result store (still writes results)",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute and overwrite points even when the store already has them",
    )


def _collect_overrides(args: argparse.Namespace) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for flag in ("scale", "seed", "engine"):
        value = getattr(args, flag)
        if value is not None:
            overrides[flag] = value
    for key, value in _split_params(args.param):
        overrides[key] = value
    return overrides


def _split_params(raw_params: Sequence[str]) -> list[tuple[str, str]]:
    pairs = []
    for raw in raw_params:
        key, separator, value = raw.partition("=")
        if not separator or not key:
            raise SystemExit(f"repro: -p expects KEY=VALUE, got {raw!r}")
        pairs.append((key, value))
    return pairs


def _execute(name: str, overrides: dict[str, Any], telemetry: Telemetry | None = None):
    try:
        return run(name, telemetry=telemetry, **overrides)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"repro: {error}") from error


def _write_result(result, out: str, timing: bool) -> None:
    text = result.to_json(include_timing=timing) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _command_list() -> int:
    names = list_experiments()
    width = max(len(name) for name in names)
    for name in names:
        spec = get_spec(name)
        print(f"{name:<{width}}  [{spec.category:<10s}]  {spec.description}")
    return 0


def _command_describe(name: str) -> int:
    try:
        spec = get_spec(name)
    except KeyError as error:
        raise SystemExit(f"repro: {error.args[0]}") from error
    print(spec.describe())
    return 0


def _command_run(args: argparse.Namespace) -> int:
    telemetry = Telemetry() if args.trace else None
    result = _execute(args.name, _collect_overrides(args), telemetry)
    print(result.summary())
    if telemetry is not None:
        # The digest line is the grep-able determinism witness: two seeded
        # invocations must print the same hex whatever machine ran them.
        print(f"telemetry digest: {result.telemetry_digest}")
    if args.out:
        _write_result(result, args.out, args.timing)
        if telemetry is not None and args.out != "-":
            trace_path = sidecar_path_for(Path(args.out))
            write_sidecar(telemetry, trace_path)
            print(f"wrote {trace_path}")
    return 0


def _report_grid(kind: str, pattern: str, outcomes: list[PointOutcome], out_dir: str) -> int:
    """Print the point-ordered grid report; non-zero when any point failed.

    Every failed point is listed (the grid never stops at the first
    failure), and the summary counts are a function of the command line
    alone — workers and completion order cannot reorder a byte of it.
    """
    for outcome in outcomes:
        if outcome.status == "failed":
            print(f"  failed  {outcome.point.label}: {outcome.error}")
        else:
            note = f" ({outcome.wall_clock_seconds:.2f}s)" if outcome.status == "ran" else ""
            if outcome.telemetry_digest is not None:
                note += f" trace={outcome.telemetry_digest[:12]}"
            print(f"  {outcome.status:<6s}  {outcome.point.label} -> {outcome.point.filename}{note}")
    ran = sum(1 for outcome in outcomes if outcome.status == "ran")
    cached = sum(1 for outcome in outcomes if outcome.status == "cached")
    failed = [outcome for outcome in outcomes if outcome.status == "failed"]
    print(
        f"{kind} {pattern!r}: {len(outcomes)} point(s): "
        f"{ran} ran, {cached} cached, {len(failed)} failed -> {out_dir}"
    )
    if failed:
        print(
            f"repro: {len(failed)} point(s) failed: "
            + ", ".join(outcome.point.label for outcome in failed),
            file=sys.stderr,
        )
        return 1
    return 0


def _run_grid(kind: str, pattern: str, points, args: argparse.Namespace) -> int:
    if not points:
        raise SystemExit(f"repro: the {kind} expanded to no run points")
    if args.workers is not None and args.workers < 1:
        raise SystemExit("repro: --workers must be at least 1")
    store = ResultStore(args.out_dir)
    outcomes = run_points(
        points,
        store,
        workers=args.workers,
        use_cache=not args.no_cache,
        force=args.force,
        timing=args.timing,
        trace=args.trace,
    )
    return _report_grid(kind, pattern, outcomes, args.out_dir)


def _command_batch(args: argparse.Namespace) -> int:
    try:
        matches = match_experiments(args.pattern)
        points = batch_points(matches, _collect_overrides(args))
    except (KeyError, ValueError) as error:
        raise SystemExit(f"repro: {error}") from error
    print(f"running {len(matches)} experiment(s): {', '.join(matches)}")
    return _run_grid("batch", args.pattern, points, args)


def _command_sweep(args: argparse.Namespace) -> int:
    # The sweep parser declares scale/seed/engine as plain strings, so the
    # shared collector yields exactly the expression map expand_sweep wants.
    axes = _collect_overrides(args)
    try:
        points = expand_sweep(args.pattern, axes)
    except (KeyError, ValueError) as error:
        raise SystemExit(f"repro: {error}") from error
    if args.dry_run:
        for point in points:
            print(f"  {point.label} -> {point.filename}")
        print(f"sweep {args.pattern!r}: {len(points)} point(s) (dry run)")
        return 0
    return _run_grid("sweep", args.pattern, points, args)


def _command_collect(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise SystemExit(f"repro: {directory} is not a directory")
    try:
        summary = collect_results(directory)
    except ValueError as error:  # orphaned trace sidecars: corrupt directory
        raise SystemExit(f"repro: {error}") from error
    width = max((len(row["name"]) for row in summary["runs"]), default=4)
    print(
        f"{'name':<{width}}  {'seed':>6s}  {'scale':<6s}  {'engine':<10s}  "
        f"metrics  series  trace"
    )
    for row in summary["runs"]:
        digest = row["trace_digest"]
        trace_note = digest[:12] if digest else ("present" if row["trace"] else "-")
        print(
            f"{row['name']:<{width}}  {row['seed']:>6d}  {row['scale']:<6s}  "
            f"{row['engine']:<10s}  {len(row['metrics']):>7d}  {len(row['series_lengths']):>6d}  "
            f"{trace_note}"
        )
    for name, bucket in sorted(summary["by_name"].items()):
        print(f"{name}: {bucket['runs']} run(s)")
    if summary["skipped_files"]:
        print(
            "skipped unreadable file(s): " + ", ".join(summary["skipped_files"]),
            file=sys.stderr,
        )
    print(f"collected {summary['num_runs']} run(s) from {directory}")
    if args.out:
        text = summary_json(summary) + "\n"
        if args.out == "-":
            sys.stdout.write(text)
        else:
            out_path = Path(args.out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(text)
            print(f"wrote {out_path}")
    return 0


def _load_sidecar(raw_path: str) -> list[dict]:
    """Resolve and parse a sidecar argument (accepts an envelope path too)."""
    path = Path(raw_path)
    if not path.name.endswith(SIDECAR_SUFFIX):
        path = sidecar_path_for(path)
    try:
        return read_sidecar(path)
    except OSError as error:
        raise SystemExit(f"repro: cannot read {path}: {error.strerror or error}") from error
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from error


def _command_trace(args: argparse.Namespace) -> int:
    records = _load_sidecar(args.path)
    print(render_trace(records, limit=args.limit))
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    records = _load_sidecar(args.path)
    print(render_stats(records))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "describe":
        return _command_describe(args.name)
    if args.command == "run":
        return _command_run(args)
    if args.command == "batch":
        return _command_batch(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "collect":
        return _command_collect(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "stats":
        return _command_stats(args)
    if args.command == "serve":
        return command_serve(args)
    raise SystemExit(f"repro: unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
