"""Fluid (mean-field) settlement tier: whole-fleet node physics as flat arrays.

The exact engines simulate every emulated browser as an individual heap entry
and settle every node in Python, which bounds fleet width at interpreter
speed.  This module replaces both with *aggregate* state: the browser
population becomes a per-node Poisson arrival rate (one vectorized draw per
tick for the whole fleet) and the OS/JVM settlement -- transient allocation,
GC promotion, leak accrual, footprint growth, load decay, monitoring marks --
is replayed as numpy array operations over all nodes simultaneously.
Monitoring marks leave this module as raw per-node arrays
(:meth:`FluidFleet.sample_fields`); the fluid cluster engine turns them
into Table 2 rows with the same ``repro.core.features.FeatureBank`` every
tier uses, so nothing here depends on the prediction framework.

The tier is *approximate by construction*: randomized injector thresholds are
replaced by their expected rates, per-request response times by a per-node
mean, and mid-tick crashes by end-of-tick mask updates.  The accuracy
contract is therefore aggregate, not bit-for-bit: on overlapping scales the
fluid tier must reproduce the exact engines' ``ClusterOutcome`` aggregates
(availability, crash counts, uptime-per-crash) within the bounds asserted in
``tests/cluster/test_fluid_validation.py``.  Within the tier itself, seeded
runs are byte-identical across repeats and worker settings: all randomness
flows from one ``numpy.random.Generator(PCG64(seed))`` consumed in a fixed
per-tick order.

Every closed-form constant here is derived from the exact components it
replaces (the derivation is cited next to each formula), so a change to the
exact testbed physics shows up as a fluid validation failure instead of a
silent drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.testbed.config import TestbedConfig
from repro.testbed.database.mysql import MySQLServer
from repro.testbed.faults.injector import FaultInjector
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.thread_leak import ThreadLeakInjector
from repro.testbed.tpcw.interactions import INTERACTIONS
from repro.testbed.tpcw.workload import WorkloadMix

__all__ = [
    "FluidMixStats",
    "FluidLeakRates",
    "FluidFleet",
    "mix_stats",
    "leak_rates_from_injectors",
]


@dataclass(frozen=True)
class FluidMixStats:
    """Weighted means of the TPC-W interaction table for one traffic mix.

    The exact workload samples interactions with ``random.choices``; the
    fluid tier replaces every per-request draw by these expected values.
    """

    mean_service_demand: float
    mean_db_queries: float
    mean_memory_factor: float
    #: interaction name -> probability of one request hitting it.
    shares: dict[str, float]

    def share(self, interaction_name: str) -> float:
        return self.shares.get(interaction_name, 0.0)


def mix_stats(mix: WorkloadMix = WorkloadMix.SHOPPING) -> FluidMixStats:
    """Collapse ``INTERACTIONS`` under ``mix`` into its request-mean moments."""
    weights = np.asarray(mix.weights(), dtype=float)
    total = float(weights.sum())
    shares = weights / total
    return FluidMixStats(
        mean_service_demand=float(
            np.dot(shares, [interaction.service_demand_factor for interaction in INTERACTIONS])
        ),
        mean_db_queries=float(np.dot(shares, [interaction.db_queries for interaction in INTERACTIONS])),
        mean_memory_factor=float(
            np.dot(shares, [interaction.memory_factor for interaction in INTERACTIONS])
        ),
        shares={
            interaction.name: float(share) for interaction, share in zip(INTERACTIONS, shares)
        },
    )


@dataclass(frozen=True)
class FluidLeakRates:
    """Expected aging rates of one node's injector set.

    Attributes
    ----------
    leaked_mb_per_request:
        Expected Old-zone megabytes leaked per *served request* (memory-leak
        injector: per-servlet trigger probability times the expected MB per
        triggering invocation).
    threads_per_second:
        Expected threads leaked per second of node lifetime (thread-leak
        injector: mean batch over mean inter-injection time).
    leak_quantum_mb:
        Size of one memory-leak allocation; the OOM margin of the fluid
        crash condition.
    """

    leaked_mb_per_request: float = 0.0
    threads_per_second: float = 0.0
    leak_quantum_mb: float = 1.0


def leak_rates_from_injectors(
    injectors: Sequence[FaultInjector], stats: FluidMixStats
) -> FluidLeakRates:
    """Collapse exact fault injectors into their expected fluid rates.

    Only the two paper injectors have a fluid closed form; anything else is
    an explicit error -- the fluid tier must refuse rather than silently
    ignore a fault model it cannot represent.
    """
    leaked_per_request = 0.0
    threads_per_second = 0.0
    quantum = 1.0
    for injector in injectors:
        if isinstance(injector, MemoryLeakInjector):
            if injector.n is None:
                continue
            n = injector.n
            # The injector redraws ``randint(0, n)`` servlet invocations
            # between leaks and promotes a drawn 0 to 1, so the expected gap
            # is (1 + sum(1..n)) / (n + 1) invocations per leak_mb.
            mean_gap = (1.0 + n * (n + 1) / 2.0) / (n + 1)
            leaked_per_request += (
                stats.share(injector.servlet_name) * injector.leak_mb / mean_gap
            )
            quantum = injector.leak_mb
        elif isinstance(injector, ThreadLeakInjector):
            if not injector.enabled:
                continue
            # uniform(0, t) between injections (mean t/2), randint(0, m)
            # threads per injection (mean m/2): m/t threads per second.
            threads_per_second += injector.m / injector.t
        else:
            raise ValueError(
                f"fluid tier has no closed form for injector {type(injector).__name__}; "
                "use the exact engine='event' for custom fault models"
            )
    return FluidLeakRates(
        leaked_mb_per_request=leaked_per_request,
        threads_per_second=threads_per_second,
        leak_quantum_mb=quantum,
    )


def _column(configs: Sequence[TestbedConfig], attribute: str) -> np.ndarray:
    return np.asarray([float(getattr(config, attribute)) for config in configs], dtype=float)


class FluidFleet:
    """Vectorized mean-field settlement of ``n`` testbed nodes.

    One instance owns every per-node physics array.  The cluster engine
    drives it with :meth:`step` (one call per tick, arrays over all nodes),
    resets crashed/rejuvenated nodes with :meth:`reset`, and reads monitoring
    marks with :meth:`sample_fields`.
    """

    def __init__(
        self,
        configs: Sequence[TestbedConfig],
        leak_rates: Sequence[FluidLeakRates],
        mix: WorkloadMix = WorkloadMix.SHOPPING,
    ) -> None:
        if len(configs) != len(leak_rates):
            raise ValueError("configs and leak_rates must align")
        n = len(configs)
        if n < 1:
            raise ValueError("a fluid fleet needs at least one node")
        self.num_nodes = n
        self.stats = mix_stats(mix)

        # ----- per-node constants (heterogeneous fleets get true arrays)
        self.young_capacity = _column(configs, "young_capacity_mb")
        self.old_initial = _column(configs, "old_initial_mb")
        self.old_step = _column(configs, "old_resize_step_mb")
        self.old_max = np.asarray([float(config.max_old_mb) for config in configs], dtype=float)
        self.perm = _column(configs, "perm_mb")
        self.promotion_fraction = _column(configs, "promotion_fraction")
        self.release_fraction = _column(configs, "full_gc_release_fraction")
        self.max_threads = _column(configs, "max_threads")
        self.base_workers = _column(configs, "base_worker_threads")
        self.thread_stack_mb = _column(configs, "thread_stack_mb")
        self.thread_heap_mb = _column(configs, "thread_heap_overhead_mb")
        self.jvm_overhead = _column(configs, "jvm_overhead_mb")
        self.system_mb = _column(configs, "system_memory_mb")
        self.swap_mb = _column(configs, "swap_mb")
        self.os_base = _column(configs, "os_base_memory_mb")
        self.disk_capacity = _column(configs, "disk_capacity_mb")
        self.disk_base = _column(configs, "disk_base_used_mb")
        self.log_mb_per_request = _column(configs, "log_mb_per_request")
        self.mean_think = _column(configs, "mean_think_time_s")
        self.base_service = _column(configs, "base_service_time_s")
        self.request_mb = _column(configs, "request_memory_mb")
        self.cores = _column(configs, "cpu_cores")
        databases = [MySQLServer(memory_mb=config.mysql_memory_mb) for config in configs]
        self.db_query_time = np.asarray(
            [float(database.base_query_time_s) for database in databases], dtype=float
        )
        self.db_max_connections = np.asarray(
            [float(database.max_connections) for database in databases], dtype=float
        )
        self.mem_rate = np.asarray([rate.leaked_mb_per_request for rate in leak_rates], dtype=float)
        self.thread_rate = np.asarray([rate.threads_per_second for rate in leak_rates], dtype=float)
        self.leak_quantum = np.asarray([rate.leak_quantum_mb for rate in leak_rates], dtype=float)

        # ----- per-incarnation state
        self.leaked = np.zeros(n)
        self.floating = np.zeros(n)
        self.young_used = np.zeros(n)
        self.old_committed = self.old_initial.copy()
        self.thread_leak = np.zeros(n)
        self.rss = np.zeros(n)
        self.load = np.zeros(n)
        self.disk = self.disk_base.copy()
        # Mean response seen by the closed loop; seeds the arrival rate of
        # the very first tick (no contention, empty database).
        self.response = self._base_response()
        # Per-mark accumulators (drained by sample_fields).
        self.served_since_mark = np.zeros(n)
        self.response_weight_since_mark = np.zeros(n)

    def _base_response(self) -> np.ndarray:
        return (
            self.base_service * self.stats.mean_service_demand
            + self.stats.mean_db_queries * self.db_query_time
        )

    def reset(self, mask: np.ndarray) -> None:
        """Begin a fresh incarnation (restarted JVM, new OS view) for ``mask``."""
        self.leaked[mask] = 0.0
        self.floating[mask] = 0.0
        self.young_used[mask] = 0.0
        self.old_committed[mask] = self.old_initial[mask]
        self.thread_leak[mask] = 0.0
        self.rss[mask] = 0.0
        self.load[mask] = 0.0
        self.disk[mask] = self.disk_base[mask]
        self.response[mask] = self._base_response()[mask]
        self.served_since_mark[mask] = 0.0
        self.response_weight_since_mark[mask] = 0.0

    # ------------------------------------------------------------------ physics

    @property
    def total_threads(self) -> np.ndarray:
        """Worker pool plus accrued leaked threads (exact: pool total)."""
        return self.base_workers + np.floor(self.thread_leak)

    @property
    def old_used(self) -> np.ndarray:
        return self.leaked + self.floating

    def arrival_rate(self, assigned_ebs: np.ndarray) -> np.ndarray:
        """Closed-loop request rate: each EB cycles think time plus response."""
        return assigned_ebs / (self.mean_think + self.response)

    def step(self, live: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
        """Advance one one-second tick for ``live`` nodes; return the crashed mask.

        ``arrivals`` is the per-node served-request count of the tick (zero
        for non-accepting nodes).  Crashes are evaluated at tick end -- the
        sub-tick crash timing of the exact engines is part of the accuracy
        gap the validation bounds cover.
        """
        live_f = live.astype(float)
        arrivals = arrivals * live_f

        # Thread leak accrues with lifetime, memory leak with served traffic
        # (the injector listens on one servlet's invocations).
        self.thread_leak += live_f * self.thread_rate
        self.leaked += arrivals * self.mem_rate
        self.leaked += live_f * self.thread_rate * self.thread_heap_mb

        # Transient allocation: every request touches young space; minor GCs
        # promote ``promotion_fraction`` of everything that passes through.
        transient = arrivals * self.request_mb * self.stats.mean_memory_factor
        self.floating += transient * self.promotion_fraction
        self.young_used = np.mod(self.young_used + transient, self.young_capacity)

        # Old-zone staircase: full GC drops the floating garbage, then the
        # committed size grows in steps up to the configured maximum (exact:
        # Heap._ensure_old_capacity).
        over = live & (self.old_used > self.old_committed)
        self.floating[over] *= 1.0 - self.release_fraction[over]
        deficit = self.old_used - self.old_committed
        grow = live & (deficit > 0.0)
        self.old_committed[grow] = np.minimum(
            self.old_max[grow],
            self.old_committed[grow] + np.ceil(deficit[grow] / self.old_step[grow]) * self.old_step[grow],
        )

        # Response model: mean service demand inflated by CPU and GC pressure
        # plus database time (exact: the contention factor and the database
        # time of repro.testbed.events.serving_kernel, evaluated at the
        # tick's mean load).
        inflight = np.maximum(arrivals * self.response, live_f)
        headroom_frac = (self.old_max - self.old_used) / np.maximum(self.old_max, 1.0)
        heap_pressure = np.where(headroom_frac < 0.10, (0.10 - headroom_frac) * 30.0, 0.0)
        contention = 1.0 + inflight / (self.cores * 4.0) + heap_pressure
        connections = np.minimum(inflight, self.db_max_connections)
        db_time = self.stats.mean_db_queries * self.db_query_time * (
            1.0 + connections / self.db_max_connections
        )
        self.response = np.where(
            live,
            self.base_service * self.stats.mean_service_demand * contention + db_time,
            self.response,
        )

        # OS settlement: RSS is the running max of the touched footprint,
        # load is the kernel-style EMA of busy threads per core, disk grows
        # with served traffic.
        threads = self.total_threads
        footprint = (
            self.young_used
            + self.old_used
            + self.perm
            + threads * self.thread_stack_mb
            + self.jvm_overhead
        )
        self.rss = np.where(live, np.maximum(self.rss, footprint), self.rss)
        busy = np.minimum(inflight, self.cores * 64.0)
        self.load = np.where(
            live, self.load + (busy / self.cores - self.load) * (1.0 / 60.0), self.load
        )
        self.disk = np.where(
            live,
            np.minimum(self.disk + self.log_mb_per_request * arrivals, self.disk_capacity),
            self.disk,
        )

        self.served_since_mark += arrivals
        self.response_weight_since_mark += arrivals * self.response

        # Crash conditions: OutOfMemoryError once even a post-full-GC old
        # zone cannot fit the next leak quantum; ThreadExhaustionError once
        # the pool total would exceed max_threads.
        post_gc_old = self.leaked + self.floating * (1.0 - self.release_fraction)
        crash_memory = post_gc_old + self.leak_quantum > self.old_max
        crash_threads = threads >= self.max_threads
        return live & (crash_memory | crash_threads)

    # --------------------------------------------------------------- monitoring

    def sample_fields(
        self, due: np.ndarray, interval_seconds: float, assigned_ebs: np.ndarray
    ) -> dict[str, np.ndarray]:
        """The 18 raw Table 2 variables of every node, as arrays.

        Mirrors ``MetricsCollector.collect`` field by field (throughput and
        response time drain the per-mark accumulators; swap/system memory
        replay ``OperatingSystem.telemetry``).  Keys are the
        ``MonitoringSample`` field names.  Returned arrays cover the
        whole fleet, but only the ``due`` nodes' per-mark accumulators are
        drained -- restarted nodes mark on their own offset cadence.
        """
        throughput = self.served_since_mark / interval_seconds
        response = np.where(
            self.served_since_mark > 0.0,
            self.response_weight_since_mark / np.maximum(self.served_since_mark, 1e-9),
            0.0,
        )
        self.served_since_mark[due] = 0.0
        self.response_weight_since_mark[due] = 0.0

        threads = self.total_threads
        raw = self.os_base + self.rss
        swap_used = np.clip(raw - self.system_mb, 0.0, self.swap_mb)
        inflight = np.maximum(np.rint(throughput * self.response), 0.0)
        return {
            "throughput_rps": throughput,
            "workload_ebs": assigned_ebs.astype(float),
            "response_time_s": response,
            "system_load": self.load.copy(),
            "disk_used_mb": self.disk.copy(),
            "swap_free_mb": self.swap_mb - swap_used,
            "num_processes": 92.0 + threads,
            "system_memory_used_mb": np.minimum(raw, self.system_mb + swap_used),
            "tomcat_memory_used_mb": self.rss.copy(),
            "num_threads": threads,
            "http_connections": np.minimum(2.0 * inflight, self.max_threads),
            "mysql_connections": np.minimum(inflight, self.db_max_connections),
            "young_max_mb": self.young_capacity.copy(),
            "old_max_mb": self.old_max.copy(),
            "young_used_mb": self.young_used.copy(),
            "old_used_mb": self.old_used.copy(),
            "young_used_pct": 100.0 * self.young_used / np.maximum(self.young_capacity, 1e-9),
            "old_used_pct": 100.0 * self.old_used / np.maximum(self.old_max, 1e-9),
        }
