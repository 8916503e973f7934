"""The simulated Tomcat application server.

``TomcatServer`` is the point where the other substrate pieces meet: requests
arriving from the TPC-W workload generator take a worker thread, allocate
transient memory in the JVM heap, query the database and produce a response
time that grows with contention.  The per-interval counters it holds
(completed requests, accumulated response time, open connections) are exactly
what the monitoring collector needs to emit the Table 2 raw variables.

The server holds the state; the request-serving semantics live in one place,
the serving kernel of :mod:`repro.testbed.events`
(:func:`~repro.testbed.events.serving_kernel`), which both exact engines run.
"""

from __future__ import annotations

from repro.testbed.appserver.servlet import ServletRegistry
from repro.testbed.appserver.thread_pool import ThreadPool
from repro.testbed.config import TestbedConfig
from repro.testbed.database.mysql import MySQLServer
from repro.testbed.jvm.heap import GenerationalHeap

__all__ = ["TomcatServer"]


class TomcatServer:
    """Request-processing model of the application server.

    Parameters
    ----------
    config:
        Shared testbed configuration.
    heap:
        The JVM heap of this server's process.
    thread_pool:
        Worker/leaked thread accounting.
    database:
        Backing MySQL model used for per-interaction query latencies.
    """

    def __init__(
        self,
        config: TestbedConfig,
        heap: GenerationalHeap,
        thread_pool: ThreadPool,
        database: MySQLServer,
    ) -> None:
        self.config = config
        self.heap = heap
        self.thread_pool = thread_pool
        self.database = database
        self.servlets = ServletRegistry()

        #: Requests completed since the server started.
        self.total_requests = 0
        #: Requests completed since the last monitoring sample.
        self.requests_since_sample = 0
        #: Sum of response times since the last monitoring sample.
        self.response_time_since_sample = 0.0
        #: Requests that found every worker thread busy since the last sample.
        self.queued_since_sample = 0
        #: Concurrent requests submitted during the current tick.
        self._concurrent_this_tick = 0

    # ------------------------------------------------------------------ tick

    def begin_tick(self) -> None:
        """Reset the per-tick concurrency counter (called by the engine)."""
        self._concurrent_this_tick = 0

    # ------------------------------------------------------------ monitoring

    @property
    def http_connections(self) -> int:
        """Open HTTP connections: busy workers plus keep-alive connections."""
        return self.thread_pool.busy_workers + self._concurrent_this_tick

    def drain_sample_counters(self) -> tuple[int, float, int]:
        """Return and reset (requests, total response time, queued) counters."""
        counters = (
            self.requests_since_sample,
            self.response_time_since_sample,
            self.queued_since_sample,
        )
        self.requests_since_sample = 0
        self.response_time_since_sample = 0.0
        self.queued_since_sample = 0
        return counters

    def memory_footprint_mb(self) -> float:
        """Memory the process is actually touching right now.

        Heap pages count once they hold live objects (Young + Old occupancy
        plus the Permanent zone), not when they are merely committed; on top
        of that come the native thread stacks and the JVM's own overhead.
        The OS model turns this into the reported RSS by taking its running
        maximum -- Linux does not reclaim pages a process has freed -- which
        is what produces the flat zones of the paper's Figure 1 after a full
        GC reclaims floating garbage.
        """
        heap = self.heap
        return (
            heap.young_used_mb
            + heap.old_used_mb
            + heap.perm_used_mb
            + self.thread_pool.total_threads * self.config.thread_stack_mb
            + self.config.jvm_overhead_mb
        )
