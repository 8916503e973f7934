"""Tests for the aging-fault injectors."""

import pytest

from repro.testbed.appserver.thread_pool import ThreadPool
from repro.testbed.appserver.tomcat import TomcatServer
from repro.testbed.config import TestbedConfig
from repro.testbed.database.mysql import MySQLServer
from repro.testbed.errors import ThreadExhaustionError
from repro.testbed.events import serving_kernel
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.periodic import PeriodicPatternInjector, PeriodicPhase
from repro.testbed.faults.thread_leak import ThreadLeakInjector
from repro.testbed.jvm.heap import GenerationalHeap
from repro.testbed.tpcw.interactions import INTERACTIONS, interaction_by_name


def make_server():
    config = TestbedConfig()
    heap = GenerationalHeap(
        young_capacity_mb=config.young_capacity_mb,
        old_initial_mb=config.old_initial_mb,
        old_max_mb=config.max_old_mb,
        perm_mb=config.perm_mb,
        old_resize_step_mb=config.old_resize_step_mb,
    )
    pool = ThreadPool(config.base_worker_threads, config.max_threads)
    return TomcatServer(config, heap, pool, MySQLServer()), heap, pool


#: Kernel indices (the serving kernel serves ``INTERACTIONS[i]``).
SEARCH = INTERACTIONS.index(interaction_by_name("search_request"))
HOME = INTERACTIONS.index(interaction_by_name("home"))


def drive_search_requests(server, count):
    serve = serving_kernel(server)
    server.begin_tick()
    for _ in range(count):
        serve(SEARCH)


class TestMemoryLeakInjector:
    def test_leaks_accumulate_with_search_requests(self):
        server, heap, _ = make_server()
        injector = MemoryLeakInjector(n=10, leak_mb=1.0, seed=1)
        injector.attach(server)
        drive_search_requests(server, 500)
        assert injector.total_injections > 0
        assert heap.leaked_mb == pytest.approx(injector.total_leaked_mb)
        # With thresholds drawn from 0..10 the mean is ~5 requests/injection.
        assert 50 <= injector.total_injections <= 200

    def test_other_servlets_do_not_trigger_injection(self):
        server, heap, _ = make_server()
        injector = MemoryLeakInjector(n=5, seed=1)
        injector.attach(server)
        serve = serving_kernel(server)
        server.begin_tick()
        for _ in range(200):
            serve(HOME)
        assert injector.total_injections == 0
        assert heap.leaked_mb == 0.0

    def test_disabled_injector_never_leaks(self):
        server, heap, _ = make_server()
        injector = MemoryLeakInjector(n=None, seed=1)
        injector.attach(server)
        drive_search_requests(server, 300)
        assert heap.leaked_mb == 0.0

    def test_set_rate_changes_aggressiveness(self):
        def leaked_after(n):
            server, heap, _ = make_server()
            injector = MemoryLeakInjector(n=n, seed=3)
            injector.attach(server)
            drive_search_requests(server, 600)
            return heap.leaked_mb

        assert leaked_after(5) > leaked_after(75)

    def test_set_rate_mid_run(self):
        server, heap, _ = make_server()
        injector = MemoryLeakInjector(n=None, seed=1)
        injector.attach(server)
        drive_search_requests(server, 100)
        assert heap.leaked_mb == 0.0
        injector.set_rate(5)
        drive_search_requests(server, 100)
        assert heap.leaked_mb > 0.0

    def test_requires_attachment(self):
        injector = MemoryLeakInjector()
        with pytest.raises(RuntimeError):
            _ = injector.server

    def test_cannot_attach_twice(self):
        server, _, _ = make_server()
        injector = MemoryLeakInjector()
        injector.attach(server)
        with pytest.raises(RuntimeError):
            injector.attach(server)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryLeakInjector(n=0)
        with pytest.raises(ValueError):
            MemoryLeakInjector(leak_mb=0.0)
        injector = MemoryLeakInjector()
        with pytest.raises(ValueError):
            injector.set_rate(0)

    def test_describe_mentions_rate(self):
        assert "N=30" in MemoryLeakInjector(n=30).describe()
        assert "disabled" in MemoryLeakInjector(n=None).describe()


class TestThreadLeakInjector:
    def test_threads_leak_over_time(self):
        server, _, pool = make_server()
        injector = ThreadLeakInjector(m=10, t=20, seed=1)
        injector.attach(server)
        for second in range(1, 600):
            injector.on_tick(float(second))
        assert injector.total_threads_leaked > 0
        assert pool.leaked_threads == injector.total_threads_leaked

    def test_leaked_threads_also_consume_heap(self):
        server, heap, _ = make_server()
        injector = ThreadLeakInjector(m=20, t=10, seed=2)
        injector.attach(server)
        for second in range(1, 400):
            injector.on_tick(float(second))
        assert heap.leaked_mb > 0.0

    def test_eventually_exhausts_thread_limit(self):
        server, _, pool = make_server()
        injector = ThreadLeakInjector(m=50, t=5, seed=3)
        injector.attach(server)
        with pytest.raises(ThreadExhaustionError):
            for second in range(1, 100_000):
                injector.on_tick(float(second))
        assert pool.total_threads == server.config.max_threads

    def test_disabled_injector_does_nothing(self):
        server, _, pool = make_server()
        injector = ThreadLeakInjector(m=10, t=10, seed=4, enabled=False)
        injector.attach(server)
        for second in range(1, 300):
            injector.on_tick(float(second))
        assert pool.leaked_threads == 0

    def test_enable_mid_run_without_burst(self):
        server, _, pool = make_server()
        injector = ThreadLeakInjector(m=10, t=30, seed=5, enabled=False)
        injector.attach(server)
        for second in range(1, 1000):
            injector.on_tick(float(second))
        injector.set_rate(10, 30)
        injector.on_tick(1000.0)
        # Re-enabling must not inject a burst proportional to the idle time.
        assert pool.leaked_threads <= 10

    def test_higher_m_leaks_faster(self):
        def leaked(m, t):
            server, _, pool = make_server()
            injector = ThreadLeakInjector(m=m, t=t, seed=6)
            injector.attach(server)
            try:
                for second in range(1, 1800):
                    injector.on_tick(float(second))
            except ThreadExhaustionError:
                pass
            return pool.leaked_threads

        assert leaked(45, 60) > leaked(15, 120)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadLeakInjector(m=0)
        with pytest.raises(ValueError):
            ThreadLeakInjector(t=0)
        injector = ThreadLeakInjector()
        with pytest.raises(ValueError):
            injector.set_rate(0)

    def test_describe(self):
        assert "M=30" in ThreadLeakInjector(m=30, t=90).describe()


class TestPeriodicPatternInjector:
    def test_phase_rotation(self):
        server, _, _ = make_server()
        injector = PeriodicPatternInjector(phase_duration_s=100.0, seed=1)
        injector.attach(server)
        assert injector.phase is PeriodicPhase.NORMAL
        injector.on_tick(100.0)
        assert injector.phase is PeriodicPhase.ACQUIRE
        injector.on_tick(200.0)
        assert injector.phase is PeriodicPhase.RELEASE
        injector.on_tick(300.0)
        assert injector.phase is PeriodicPhase.NORMAL
        assert len(injector.phase_history) == 4

    def test_acquire_phase_allocates_retained_memory(self):
        server, heap, _ = make_server()
        injector = PeriodicPatternInjector(phase_duration_s=50.0, acquire_n=5, seed=2)
        injector.attach(server)
        injector.on_tick(50.0)  # enter the acquire phase
        drive_search_requests(server, 300)
        assert heap.retained_mb > 0.0
        assert injector.total_acquired_mb == pytest.approx(heap.retained_mb)

    def test_slow_release_retains_memory(self):
        server, heap, _ = make_server()
        injector = PeriodicPatternInjector(
            phase_duration_s=50.0, acquire_n=5, release_n=75, full_release=False, seed=3
        )
        injector.attach(server)
        injector.on_tick(50.0)
        drive_search_requests(server, 300)
        acquired = heap.retained_mb
        injector.on_tick(100.0)  # release phase
        drive_search_requests(server, 300)
        assert heap.retained_mb > 0.0
        assert heap.retained_mb < acquired

    def test_full_release_returns_to_initial_state(self):
        server, heap, _ = make_server()
        injector = PeriodicPatternInjector(
            phase_duration_s=50.0, acquire_n=5, release_n=10, full_release=True, seed=4
        )
        injector.attach(server)
        injector.on_tick(50.0)
        drive_search_requests(server, 200)
        injector.on_tick(100.0)
        drive_search_requests(server, 50)
        injector.on_tick(150.0)  # end of release phase -> full release
        assert heap.retained_mb == pytest.approx(0.0)

    def test_normal_phase_does_not_allocate(self):
        server, heap, _ = make_server()
        injector = PeriodicPatternInjector(phase_duration_s=1000.0, seed=5)
        injector.attach(server)
        drive_search_requests(server, 200)
        assert heap.retained_mb == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicPatternInjector(phase_duration_s=0.0)
        with pytest.raises(ValueError):
            PeriodicPatternInjector(acquire_n=0)
        with pytest.raises(ValueError):
            PeriodicPatternInjector(block_mb=0.0)

    def test_describe_mentions_mode(self):
        assert "aging" in PeriodicPatternInjector(full_release=False).describe()
        assert "full release" in PeriodicPatternInjector(full_release=True).describe()
