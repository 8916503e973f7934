"""Tests for the thread pool, servlets, Tomcat server, database and OS model.

Requests are served the way the program serves them, through the serving
kernel of ``repro.testbed.events``; ``TestServingKernel`` pins the kernel to
the reference object path kept in ``tests/testbed/oracle.py``.
"""

import random

import pytest

from repro.testbed.appserver.servlet import ServletRegistry
from repro.testbed.appserver.thread_pool import ThreadPool
from repro.testbed.appserver.tomcat import TomcatServer
from repro.testbed.config import MachineDescription, TestbedConfig
from repro.testbed.database.mysql import MySQLServer
from repro.testbed.errors import OutOfMemoryError, ThreadExhaustionError
from repro.testbed.events import serving_kernel
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.jvm.heap import GenerationalHeap
from repro.testbed.osmodel.system import OperatingSystem
from repro.testbed.tpcw.interactions import INTERACTIONS
from tests.testbed.oracle import handle_request

#: Kernel index of each interaction (the kernel serves ``INTERACTIONS[i]``).
INDEX = {interaction.name: index for index, interaction in enumerate(INTERACTIONS)}


def make_server(config=None, database=None):
    config = config or TestbedConfig()
    heap = GenerationalHeap(
        young_capacity_mb=config.young_capacity_mb,
        old_initial_mb=config.old_initial_mb,
        old_max_mb=config.max_old_mb,
        perm_mb=config.perm_mb,
        old_resize_step_mb=config.old_resize_step_mb,
    )
    pool = ThreadPool(config.base_worker_threads, config.max_threads)
    database = database or MySQLServer()
    return TomcatServer(config, heap, pool, database), heap, pool, database


def serving(server):
    """``serve(name) -> response time`` through the kernel built over ``server``."""
    kernel = serving_kernel(server)
    return lambda name: kernel(INDEX[name])


def component_state(server):
    """Every field serving a request can write, floats as exact hex."""
    heap, pool, database = server.heap, server.thread_pool, server.database
    return {
        "server": (
            server._concurrent_this_tick,
            server.total_requests,
            server.requests_since_sample,
            server.queued_since_sample,
            server.response_time_since_sample.hex(),
        ),
        "pool": (pool.busy_workers, pool.worker_threads, pool.leaked_threads),
        "database": (database.active_connections, database.total_queries),
        "servlets": [servlet.invocations for servlet in server.servlets],
        "heap": [
            value.hex()
            for value in (
                heap._young_used,
                heap._old_committed,
                heap._old_leaked,
                heap._old_retained,
                heap._old_floating,
            )
        ],
        "gc": (
            heap.collector.minor_collections,
            heap.collector.full_collections,
            heap.collector.resizes,
        ),
    }


class TestThreadPool:
    def test_initial_state(self):
        pool = ThreadPool(base_threads=25, max_threads=100)
        assert pool.total_threads == 25
        assert pool.leaked_threads == 0
        assert pool.available_threads == 75

    def test_concurrency_grows_worker_peak(self):
        pool = ThreadPool(base_threads=10, max_threads=100)
        pool.set_concurrency(30)
        assert pool.busy_workers == 30
        assert pool.worker_threads == 30
        pool.set_concurrency(5)
        assert pool.busy_workers == 5
        # Tomcat keeps the grown pool alive.
        assert pool.worker_threads == 30

    def test_leak_accumulates(self):
        pool = ThreadPool(base_threads=10, max_threads=100)
        pool.leak(20)
        pool.leak(15)
        assert pool.leaked_threads == 35
        assert pool.total_threads == 45

    def test_leak_beyond_limit_crashes(self):
        pool = ThreadPool(base_threads=10, max_threads=50)
        with pytest.raises(ThreadExhaustionError) as crash:
            pool.leak(45)
        assert crash.value.resource == "threads"
        # The pool filled up to the limit before failing.
        assert pool.total_threads == 50

    def test_release_leaked(self):
        pool = ThreadPool(base_threads=10, max_threads=100)
        pool.leak(30)
        assert pool.release_leaked(10) == 10
        assert pool.leaked_threads == 20
        assert pool.release_leaked() == 20
        assert pool.leaked_threads == 0

    def test_utilisation_bounds(self):
        pool = ThreadPool(base_threads=10, max_threads=100)
        assert 0.0 < pool.utilisation <= 1.0
        pool.leak(80)
        assert pool.utilisation <= 1.0

    def test_reset_workers(self):
        pool = ThreadPool(base_threads=10, max_threads=100)
        pool.set_concurrency(50)
        pool.reset_workers()
        assert pool.worker_threads == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadPool(base_threads=0, max_threads=10)
        with pytest.raises(ValueError):
            ThreadPool(base_threads=10, max_threads=10)
        pool = ThreadPool(base_threads=5, max_threads=10)
        with pytest.raises(ValueError):
            pool.leak(-1)
        with pytest.raises(ValueError):
            pool.set_concurrency(-1)


class TestServletRegistry:
    def test_contains_all_interactions(self):
        registry = ServletRegistry()
        assert len(registry) == 14

    def test_invocation_counting_and_listeners(self):
        registry = ServletRegistry()
        seen = []
        servlet = registry.get("search_request")
        servlet.add_listener(lambda s: seen.append(s.name))
        servlet.invoke()
        servlet.invoke()
        assert servlet.invocations == 2
        assert seen == ["search_request", "search_request"]
        assert registry.total_invocations == 2

    def test_remove_listener(self):
        registry = ServletRegistry()
        servlet = registry.get("home")
        calls = []
        listener = lambda s: calls.append(1)
        servlet.add_listener(listener)
        servlet.remove_listener(listener)
        servlet.invoke()
        assert calls == []

    def test_unknown_servlet(self):
        with pytest.raises(KeyError):
            ServletRegistry().get("missing")


class TestTomcatServer:
    def test_request_produces_positive_response_time(self):
        server, _, _, _ = make_server()
        serve = serving(server)
        server.begin_tick()
        assert serve("home") > 0
        assert server.total_requests == 1

    def test_request_allocates_transient_memory(self):
        server, heap, _, _ = make_server()
        serve = serving(server)
        server.begin_tick()
        before = heap.young_used_mb
        serve("best_sellers")
        assert heap.young_used_mb > before

    def test_response_time_grows_with_concurrency(self):
        server, _, _, _ = make_server()
        serve = serving(server)
        server.begin_tick()
        first = serve("home")
        for _ in range(60):
            serve("home")
        last = serve("home")
        assert last > first

    def test_sample_counters_drain(self):
        server, _, _, _ = make_server()
        serve = serving(server)
        server.begin_tick()
        for _ in range(5):
            serve("home")
        requests, total_response, _ = server.drain_sample_counters()
        assert requests == 5
        assert total_response > 0
        assert server.drain_sample_counters()[0] == 0

    def test_memory_footprint_includes_threads_and_heap(self):
        server, heap, pool, _ = make_server()
        baseline = server.memory_footprint_mb()
        pool.leak(100)
        assert server.memory_footprint_mb() == pytest.approx(
            baseline + 100 * server.config.thread_stack_mb
        )
        heap.allocate_leak(50.0)
        assert server.memory_footprint_mb() == pytest.approx(
            baseline + 100 * server.config.thread_stack_mb + 50.0
        )

    def test_servlet_invocations_recorded(self):
        server, _, _, _ = make_server()
        serve = serving(server)
        server.begin_tick()
        serve("search_request")
        assert server.servlets.get("search_request").invocations == 1


class TestServingKernel:
    """The kernel leaves every component field where the object path does."""

    @staticmethod
    def _twin_servers(fast_config):
        """Two identical servers: a leaking search servlet, a small JDBC pool
        and 70 leaked threads that cap the workers below a tick's load."""
        servers = []
        for _ in range(2):
            server, _, pool, _ = make_server(fast_config, MySQLServer(max_connections=8))
            MemoryLeakInjector(n=2, leak_mb=4.0, seed=5).attach(server)
            pool.leak(70)
            servers.append(server)
        return servers

    def test_kernel_matches_reference_handle_request(self, fast_config):
        """Request by request, over ticks of 30 requests, through worker
        saturation, JDBC-pool saturation, minor GCs, Old-zone resizes, GC
        pressure near a full heap and the OutOfMemoryError that ends it, the
        response times are bit-for-bit equal and so is every component."""
        kernel_server, reference_server = self._twin_servers(fast_config)
        serve = serving_kernel(kernel_server)
        rng = random.Random(21)
        crashes = []
        pressured = False  # a request saw the Old zone over 90% full
        for _ in range(200):
            for server in (kernel_server, reference_server):
                server.begin_tick()
                server.database.begin_tick()
            for _ in range(30):
                index = rng.randrange(len(INTERACTIONS))
                try:
                    response_time = serve(index)
                except OutOfMemoryError:
                    crashes.append("kernel")
                try:
                    outcome = handle_request(reference_server, INTERACTIONS[index])
                except OutOfMemoryError:
                    crashes.append("reference")
                assert component_state(kernel_server) == component_state(reference_server)
                if crashes:
                    break
                assert response_time.hex() == outcome.response_time_s.hex()
                heap = kernel_server.heap
                pressured = pressured or heap.headroom_mb < 0.10 * heap.old_max_mb
            if crashes:
                break
        assert crashes == ["kernel", "reference"]  # both died on the same request
        state = component_state(kernel_server)
        assert state["server"][3] > 0  # requests queued for a worker
        assert state["database"][0] == 8  # the JDBC pool saturated
        assert state["gc"][0] > 0 and state["gc"][2] > 0  # minor GCs and resizes
        assert pressured


class TestMySQLServer:
    def test_query_latency_positive_and_grows_with_connections(self):
        database = MySQLServer()
        database.begin_tick()
        first = database.execute_queries(2)
        for _ in range(50):
            database.execute_queries(2)
        later = database.execute_queries(2)
        assert first > 0
        assert later >= first

    def test_zero_queries_cost_nothing(self):
        database = MySQLServer()
        database.begin_tick()
        assert database.execute_queries(0) == 0.0
        assert database.active_connections == 0

    def test_connections_capped(self):
        database = MySQLServer(max_connections=5)
        database.begin_tick()
        for _ in range(20):
            database.execute_queries(1)
        assert database.active_connections <= 5

    def test_validation(self):
        with pytest.raises(ValueError):
            MySQLServer(base_query_time_s=0.0)
        with pytest.raises(ValueError):
            MySQLServer(max_connections=0)
        with pytest.raises(ValueError):
            MySQLServer().execute_queries(-1)


class TestOperatingSystem:
    def test_rss_is_monotonic_even_when_footprint_shrinks(self):
        config = TestbedConfig()
        osmodel = OperatingSystem(config)
        osmodel.update(1.0, tomcat_footprint_mb=700.0, busy_threads=4)
        osmodel.update(1.0, tomcat_footprint_mb=500.0, busy_threads=4)
        assert osmodel.tomcat_memory_used_mb == pytest.approx(700.0)

    def test_system_memory_includes_baseline(self):
        config = TestbedConfig()
        osmodel = OperatingSystem(config)
        osmodel.update(1.0, tomcat_footprint_mb=600.0, busy_threads=2)
        assert osmodel.system_memory_used_mb == pytest.approx(config.os_base_memory_mb + 600.0)

    def test_swap_used_when_memory_oversubscribed(self):
        config = TestbedConfig(system_memory_mb=1024.0, swap_mb=1024.0)
        osmodel = OperatingSystem(config)
        osmodel.update(1.0, tomcat_footprint_mb=1500.0, busy_threads=2)
        assert osmodel.swap_used_mb > 0
        assert osmodel.swap_free_mb < config.swap_mb

    def test_load_average_tracks_busy_threads(self):
        config = TestbedConfig()
        osmodel = OperatingSystem(config)
        for _ in range(600):
            osmodel.update(1.0, tomcat_footprint_mb=100.0, busy_threads=8)
        assert osmodel.load_average == pytest.approx(8 / config.cpu_cores, rel=0.05)

    def test_disk_usage_grows_with_served_requests(self):
        config = TestbedConfig()
        osmodel = OperatingSystem(config)
        start = osmodel.disk_used_mb
        osmodel.update(3600.0, tomcat_footprint_mb=100.0, busy_threads=1, requests_completed=0)
        assert osmodel.disk_used_mb == pytest.approx(start), "no requests means no log growth"
        osmodel.update(1.0, tomcat_footprint_mb=100.0, busy_threads=1, requests_completed=10_000)
        assert osmodel.disk_used_mb > start
        assert osmodel.disk_used_mb <= config.disk_capacity_mb
        with pytest.raises(ValueError):
            osmodel.update(1.0, 100.0, 1, requests_completed=-1)

    def test_num_processes_counts_threads(self):
        osmodel = OperatingSystem(TestbedConfig())
        assert osmodel.num_processes(100) - osmodel.num_processes(0) == 100
        with pytest.raises(ValueError):
            osmodel.num_processes(-1)

    def test_update_validation(self):
        osmodel = OperatingSystem(TestbedConfig())
        with pytest.raises(ValueError):
            osmodel.update(0.0, 100.0, 1)


class TestConfig:
    def test_max_old_derived_from_heap(self):
        config = TestbedConfig(heap_max_mb=1024.0, young_capacity_mb=64.0, perm_mb=64.0)
        assert config.max_old_mb == pytest.approx(896.0)

    def test_scaled_for_fast_runs_shrinks_capacities(self):
        config = TestbedConfig()
        small = config.scaled_for_fast_runs(4.0)
        assert small.heap_max_mb == pytest.approx(config.heap_max_mb / 4)
        assert small.max_threads < config.max_threads
        assert small.monitoring_interval_s == config.monitoring_interval_s

    def test_scaled_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            TestbedConfig().scaled_for_fast_runs(0.0)

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            TestbedConfig(heap_max_mb=-1.0)
        with pytest.raises(ValueError):
            TestbedConfig(old_initial_mb=2000.0)
        with pytest.raises(ValueError):
            TestbedConfig(max_threads=10, base_worker_threads=25)

    def test_machine_description_rows_match_table1(self):
        rows = MachineDescription().rows()
        assert len(rows) == 4
        labels = [row[0] for row in rows]
        assert labels == ["Hardware", "Operating System", "JVM", "Software"]
        assert any("Tomcat" in row[2] for row in rows)
        assert any("MySQL" in row[1] for row in rows)
