"""Micro-benchmarks of the aging-aware routing hot path on a wide fleet.

Both measurements pit ``AgingAwareRouting`` against the per-request
reference scan of ``tests/cluster/oracle.py``, which recomputes every
candidate's forecast-derived health weight and walks a per-node credit dict
on every request.  Between forecast changes the policy runs on frozen
weights and a dense credit array instead.  Same methodology as the engine
benchmarks (interleaved pairs, best-of-three per side within a pair, median
per-pair ratio — so machine noise hits both sides of a pair alike):

* **Regime cache** — a wide fleet with *messy* forecast values through a
  realistic request/mark cadence: the regime path must be measurably
  faster with a bit-for-bit identical decision stream.
* **Dyadic regimes** — healthy 1.0 / shedding 0.5 weights (the common
  fleet shape) over longer regimes, on epoch-wired nodes (the fleet-shared
  ``RoutingEpoch`` counter real cluster nodes carry), whose regime
  revalidation is two integer compares.
"""

import time

from repro.cluster.routing import AgingAwareRouting, RoutingEpoch
from tests.cluster.oracle import ReferenceAgingAwareRouting

from bench_util import print_comparison

_NUM_NODES = 48
_REQUESTS = 20_000
_MARK_EVERY = 500  # one node's forecast moves every N requests (a mark cadence)
_PAIRS = 5
_RUNS_PER_SIDE = 3
_MIN_SPEEDUP = 1.5

_REPLAY_MARK_EVERY = 2_000  # longer regimes than the messy stream's
_MIN_REPLAY_SPEEDUP = 2.5


class _Node:
    """The attributes the routing layer reads, plus the version counter."""

    __slots__ = ("node_id", "predicted_ttf_seconds", "forecast_version")

    def __init__(self, node_id: int, predicted_ttf_seconds: float) -> None:
        self.node_id = node_id
        self.predicted_ttf_seconds = predicted_ttf_seconds
        self.forecast_version = 0


def _policy(reference: bool) -> AgingAwareRouting:
    policy_class = ReferenceAgingAwareRouting if reference else AgingAwareRouting
    return policy_class(ttf_comfort_seconds=900.0, shed_floor=0.1)


def _drive(reference: bool) -> tuple[float, list[int]]:
    """Route the full request stream once; return (seconds, decisions)."""
    policy = _policy(reference)
    nodes = [_Node(i, 900.0 if i % 3 else 450.0) for i in range(_NUM_NODES)]
    decisions = []
    append = decisions.append
    route = policy.route
    started = time.perf_counter()
    for request in range(_REQUESTS):
        if request % _MARK_EVERY == 0:
            node = nodes[(request // _MARK_EVERY) % _NUM_NODES]
            node.predicted_ttf_seconds = 300.0 + (request % 700)
            node.forecast_version += 1
        append(route(nodes).node_id)
    return time.perf_counter() - started, decisions


def _best_of(reference: bool) -> tuple[float, list[int]]:
    best_seconds, decisions = None, None
    for _ in range(_RUNS_PER_SIDE):
        elapsed, decisions = _drive(reference)
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, decisions


def test_routing_weight_cache_speedup(benchmark):
    """Wide-fleet routing: cached weights >=1.5x, identical decisions."""
    ratios = []
    uncached_times = []
    cached_times = []
    for _ in range(_PAIRS):
        uncached_seconds, uncached_decisions = _best_of(reference=True)
        cached_seconds, cached_decisions = _best_of(reference=False)
        assert cached_decisions == uncached_decisions
        uncached_times.append(uncached_seconds)
        cached_times.append(cached_seconds)
        ratios.append(uncached_seconds / cached_seconds)

    # One extra cached round through the benchmark fixture so the BENCH
    # json records the hot path's own timing distribution.
    benchmark.pedantic(lambda: _drive(reference=False), iterations=1, rounds=1)

    speedup = sorted(ratios)[len(ratios) // 2]
    benchmark.extra_info["num_nodes"] = _NUM_NODES
    benchmark.extra_info["requests"] = _REQUESTS
    benchmark.extra_info["uncached_s"] = round(min(uncached_times), 3)
    benchmark.extra_info["cached_s"] = round(min(cached_times), 3)
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    print_comparison(
        f"Routing: weight cache on a {_NUM_NODES}-node fleet, {_REQUESTS} requests",
        [
            ("uncached route (best pair)", "-", f"{min(uncached_times):.3f} s"),
            ("cached route (best pair)", "-", f"{min(cached_times):.3f} s"),
            ("speedup (median of pairs)", f">= {_MIN_SPEEDUP:.1f}x", f"{speedup:.2f}x"),
            ("per-pair ratios", "-", ", ".join(f"{r:.2f}x" for r in ratios)),
            ("decision streams identical", "expected", "True"),
        ],
    )
    assert speedup >= _MIN_SPEEDUP


class _EpochNode:
    """Epoch-wired stub: bumps the fleet-shared counter like real nodes."""

    __slots__ = ("node_id", "predicted_ttf_seconds", "forecast_version", "routing_epoch")

    def __init__(self, node_id: int, predicted_ttf_seconds: float, epoch: RoutingEpoch) -> None:
        self.node_id = node_id
        self.predicted_ttf_seconds = predicted_ttf_seconds
        self.forecast_version = 0
        self.routing_epoch = epoch

    def set_forecast(self, predicted_ttf_seconds: float) -> None:
        self.predicted_ttf_seconds = predicted_ttf_seconds
        self.forecast_version += 1
        self.routing_epoch.version += 1


def _drive_dyadic(reference: bool) -> tuple[float, list[int]]:
    """Route a dyadic-weight request stream once; return (seconds, decisions)."""
    policy = _policy(reference)
    epoch = RoutingEpoch()
    # A third of the fleet sheds at weight 0.5.
    nodes = [_EpochNode(i, 900.0 if i % 3 else 450.0, epoch) for i in range(_NUM_NODES)]
    decisions = []
    append = decisions.append
    route = policy.route
    started = time.perf_counter()
    for request in range(_REQUESTS):
        if request % _REPLAY_MARK_EVERY == 0:
            node = nodes[(request // _REPLAY_MARK_EVERY) % _NUM_NODES]
            node.set_forecast(450.0 if node.predicted_ttf_seconds == 900.0 else 900.0)
        append(route(nodes).node_id)
    return time.perf_counter() - started, decisions


def _best_of_dyadic(reference: bool) -> tuple[float, list[int]]:
    best_seconds, decisions = None, None
    for _ in range(_RUNS_PER_SIDE):
        elapsed, decisions = _drive_dyadic(reference)
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, decisions


def test_routing_dyadic_regime_speedup(benchmark):
    """Dyadic-weight fleet: regime scan >=2.5x, identical decisions."""
    ratios = []
    reference_times = []
    regime_times = []
    for _ in range(_PAIRS):
        reference_seconds, reference_decisions = _best_of_dyadic(reference=True)
        regime_seconds, regime_decisions = _best_of_dyadic(reference=False)
        assert regime_decisions == reference_decisions
        reference_times.append(reference_seconds)
        regime_times.append(regime_seconds)
        ratios.append(reference_seconds / regime_seconds)

    benchmark.pedantic(lambda: _drive_dyadic(reference=False), iterations=1, rounds=1)

    speedup = sorted(ratios)[len(ratios) // 2]
    benchmark.extra_info["num_nodes"] = _NUM_NODES
    benchmark.extra_info["requests"] = _REQUESTS
    benchmark.extra_info["reference_s"] = round(min(reference_times), 3)
    benchmark.extra_info["regime_s"] = round(min(regime_times), 3)
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    print_comparison(
        f"Routing: regime scan on a {_NUM_NODES}-node dyadic fleet, {_REQUESTS} requests",
        [
            ("reference route (best pair)", "-", f"{min(reference_times):.3f} s"),
            ("regime route (best pair)", "-", f"{min(regime_times):.3f} s"),
            ("speedup (median of pairs)", f">= {_MIN_REPLAY_SPEEDUP:.1f}x", f"{speedup:.2f}x"),
            ("per-pair ratios", "-", ", ".join(f"{r:.2f}x" for r in ratios)),
            ("decision streams identical", "expected", "True"),
        ],
    )
    assert speedup >= _MIN_REPLAY_SPEEDUP
