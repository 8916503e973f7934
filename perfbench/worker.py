"""The process that does one workload's work, started fresh by ``run.py``.

Every measured run happens in a new interpreter so that set-up is cold and
peak memory belongs to the work alone.  The worker prints ``ready <t>`` once
the system is ready to operate and finally ``result <json>``.  Times are
``time.perf_counter()`` readings, the system's monotonic clock, which the
parent shares: set-up runs from the parent's spawn to ``t``, and the result
gives the ``[start, end]`` intervals of the run and of each query, which the
parent scales by the speed probe beside this process (``speed.py``), and
samples of the probe's kernel timed in this thread between the queries.  With
``--spans PATH`` it wraps the calls into each ``repro`` layer with a
:class:`~tracer.Tracer` and writes the spans to ``PATH`` when it ends.

Modes::

    worker.py cluster_small --seeds A,B --store DIR [--collect N] [--setup-only] [--spans PATH]
    worker.py fluid_wide --seed S [--setup-only] [--spans PATH]
    worker.py serve --spans PATH -- <repro serve arguments>

``serve`` runs ``repro serve`` in this process with the layer wrappers
installed; the untraced service is started as ``python3 -m repro serve``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from pathlib import Path

from speed import make_kernel, sample
from tracer import Tracer

#: Size of the fluid fleet: ``ClusterScenario.fast()`` widened at its trained
#: per-node load, with the fast fleet's one-in-three restart budget.
FLUID_NODES = 1000
FLUID_EBS_PER_NODE = 40
FLUID_RESTART_BUDGET = 334
#: Ticks the fluid fleet advances between two status reads: half the
#: service's default ``chunk_ticks`` (the step at which a session lets a
#: query in), so that the tail latency has enough samples.
FLUID_CHUNK_TICKS = 30


def _emit(tag: str, payload: object | None = None) -> None:
    line = tag if payload is None else f"{tag} {json.dumps(payload, sort_keys=True)}"
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _phase(tracer: Tracer | None, name: str):
    """A root span over one phase of the workload (nothing when untraced)."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls into each layer that the workloads reach."""
    from repro.api import executor
    from repro.cluster.coordinator import NoClusterRejuvenation, RollingPredictiveRejuvenation
    from repro.cluster.fluid import FluidClusterEngine
    from repro.core import predictor as core_predictor
    from repro.experiments import cluster as experiments_cluster
    from repro.service.session import SessionRecorder

    def traces_done(tracer, traces, *args, **kwargs):
        tracer.count("testbed.traces", len(traces))
        tracer.count(
            "testbed.sim_seconds",
            sum(trace.crash_time_seconds or trace.duration_seconds for trace in traces),
        )

    def dataset_done(tracer, dataset, *args, **kwargs):
        tracer.count("core.dataset_rows", dataset.num_instances)

    def fit_done(tracer, predictor, self, dataset, *args, **kwargs):
        tracer.count("ml.fits")
        digest = hashlib.sha256(dataset.features.tobytes() + dataset.targets.tobytes())
        # One count per distinct training set: ml.fits over the number of
        # these is the share of fits that retrained an already fitted recipe.
        tracer.counts[f"ml.recipe.{digest.hexdigest()[:16]}"] = 1
        tracer.counts["ml.leaves"] = predictor.num_leaves or 0

    def row_done(tracer, value, self, row, *args, **kwargs):
        tracer.count("ml.predict_rows")

    def matrix_done(tracer, values, self, rows, *args, **kwargs):
        tracer.count("ml.predict_rows", len(values))

    def policy_name(scenario, coordinator, *args, **kwargs) -> str:
        if isinstance(coordinator, NoClusterRejuvenation):
            return "cluster.event.fleet.none"
        if isinstance(coordinator, RollingPredictiveRejuvenation):
            return "cluster.event.fleet.rolling"
        return "cluster.event.fleet.time_based"

    def fleet_done(tracer, outcome, scenario, *args, **kwargs):
        tracer.count("cluster.event.node_seconds", scenario.num_nodes * scenario.horizon_seconds)

    def fluid_step_done(tracer, tick, self, ticks, *args, **kwargs):
        tracer.count("cluster.fluid.node_seconds", self.num_nodes * ticks * self.config.tick_seconds)

    tracer.wrap(experiments_cluster, "generate_cluster_training_traces", "testbed.traces", traces_done)
    tracer.wrap(core_predictor, "build_dataset", "core.dataset", dataset_done)
    tracer.wrap(core_predictor.AgingPredictor, "fit_dataset", "ml.fit", fit_done)
    tracer.wrap(core_predictor.AgingPredictor, "predict_row", "ml.predict", row_done)
    tracer.wrap(core_predictor.AgingPredictor, "predict_matrix", "ml.predict", matrix_done)
    tracer.wrap(experiments_cluster, "run_cluster_policy", policy_name, fleet_done)
    tracer.wrap(FluidClusterEngine, "step", "cluster.fluid.step", fluid_step_done)
    tracer.wrap(executor, "execute_point", "api.point")
    tracer.wrap(SessionRecorder, "record_command", "service.recorder")
    tracer.wrap(SessionRecorder, "record_snapshot", "service.recorder")


def cluster_small(args: argparse.Namespace, tracer: Tracer | None) -> dict:
    """``repro run cluster --scale small`` at the given seeds, as one sweep."""
    with _phase(tracer, "setup"):
        from repro import api

        if tracer is not None:
            instrument(tracer)
        points = api.expand_sweep("cluster", {"seed": args.seeds, "scale": "small"})
        store = api.ResultStore(args.store)
    _emit("ready", time.perf_counter())
    if args.setup_only:
        return {}

    started = time.perf_counter()
    with _phase(tracer, "run"):
        outcomes = api.run_points(points, store, workers=1)
    run = [[started, time.perf_counter()]]

    reports = []
    for outcome in outcomes:
        report = {"label": outcome.point.label, "status": outcome.status, "error": outcome.error}
        if outcome.result is not None:
            report["metrics"] = {
                key: value
                for key, value in outcome.result.metrics.items()
                if key == "rolling_wins"
                or key.rsplit(".", 1)[-1]
                in ("availability", "full_outage_seconds", "crashes", "rejuvenations", "served_requests")
            }
            report["wall_clock_seconds"] = outcome.result.wall_clock_seconds
        reports.append(report)

    # ``repro collect``'s read of the finished store.  A researcher runs it
    # once; it is repeated so that its tail latency has enough samples.
    # Before each read the speed probe's kernel is timed here, beside it,
    # and the store read once untimed to refill the caches the kernel
    # evicted; that also spreads the reads over seconds of the host's speed
    # swings rather than one.
    kernel = make_kernel()
    queries = []
    samples = []
    for _ in range(args.collect):
        samples.append(sample(kernel))
        api.summary_json(api.collect_results(store.root))
        started = time.perf_counter()
        summary = api.collect_results(store.root)
        api.summary_json(summary)
        queries.append([started, time.perf_counter()])
    return {
        "run": run,
        "queries": queries,
        "samples": samples,
        "points": reports,
        "collected": [summary["num_runs"], summary["skipped_files"]] if queries else None,
        "envelope_bytes": sum(path.stat().st_size for path in Path(args.store).glob("*.json")),
    }


def fluid_wide(args: argparse.Namespace, tracer: Tracer | None) -> dict:
    """The 1000-node fluid fleet under rolling predictive rejuvenation."""
    with _phase(tracer, "setup"):
        from dataclasses import replace

        from repro.cluster.coordinator import RollingPredictiveRejuvenation
        from repro.cluster.routing import AgingAwareRouting
        from repro.experiments.cluster import build_cluster_engine, train_cluster_predictor
        from repro.experiments.scenarios import ClusterScenario
        from repro.testbed.timeline import first_tick_at_or_after

        if tracer is not None:
            instrument(tracer)
        scenario = replace(
            ClusterScenario.fast(),
            num_nodes=FLUID_NODES,
            total_ebs=FLUID_NODES * FLUID_EBS_PER_NODE,
            max_concurrent_restarts=FLUID_RESTART_BUDGET,
            cluster_seed=args.seed,
        )
        predictor = train_cluster_predictor(scenario)
        engine = build_cluster_engine(
            scenario,
            RollingPredictiveRejuvenation(
                max_concurrent_restarts=scenario.max_concurrent_restarts,
                min_active_fraction=scenario.min_active_fraction,
            ),
            routing_policy=AgingAwareRouting(ttf_comfort_seconds=scenario.ttf_comfort_seconds),
            predictor=predictor,
            fleet_engine="fluid",
        )
        horizon = first_tick_at_or_after(scenario.horizon_seconds, scenario.config.tick_seconds)
    _emit("ready", time.perf_counter())
    if args.setup_only:
        return {}

    kernel = make_kernel()
    run = []
    queries = []
    samples = []
    while engine.current_tick < horizon:
        started = time.perf_counter()
        with _phase(tracer, "run"):
            engine.step(min(FLUID_CHUNK_TICKS, horizon - engine.current_tick))
        run.append([started, time.perf_counter()])
        # The engine work of one dashboard refresh (/fleet, /forecasts,
        # /nodes) at every chunk boundary.  A dashboard's 2 s refresh would
        # read about ten times in this run, too few for a tail latency, so
        # the rate is a sampling choice.
        due = time.perf_counter()
        with _phase(tracer, "query"):
            engine.fleet_snapshot(), engine.node_snapshots(), engine.node_snapshots()
        queries.append([due, time.perf_counter()])
        samples.append(sample(kernel))
    started = time.perf_counter()
    with _phase(tracer, "run"):
        outcome = engine.finish()
    run.append([started, time.perf_counter()])
    return {"run": run, "outcome": outcome.metrics(), "queries": queries, "samples": samples}


def serve(serve_args: list[str], tracer: Tracer) -> int:
    """``repro serve`` with the layer wrappers installed."""
    from repro.api.cli import main
    from repro.cluster.engine import ClusterEngine

    def step_done(tracer, tick, self, ticks, *args, **kwargs):
        tracer.count("cluster.event.node_seconds", len(self.nodes) * ticks * self.config.tick_seconds)

    instrument(tracer)
    # The session steps its rolling fleet chunk by chunk, where the sweep
    # runs each fleet whole inside one run_cluster_policy call.
    tracer.wrap(ClusterEngine, "step", "cluster.event.fleet.rolling", step_done)
    return main(["serve", *serve_args])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cluster_small", "fluid_wide", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds")
    parser.add_argument("--store")
    parser.add_argument("--collect", type=int, default=0, help="times to read the finished store back")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    tracer = Tracer() if args.spans else None
    try:
        if args.mode == "serve":
            return serve(argv[split + 1 :], tracer)
        work = cluster_small if args.mode == "cluster_small" else fluid_wide
        _emit("result", work(args, tracer))
        return 0
    finally:
        if tracer is not None:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
