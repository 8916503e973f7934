"""Configuration of the simulated testbed.

Two configuration objects live here:

``MachineDescription``
    The documented constants of the paper's Table 1 (machine description of
    the physical testbed).  They are not simulation knobs; they exist so the
    Table 1 benchmark can print the configuration the reproduction assumes.
``TestbedConfig``
    Every tunable of the simulation itself: heap geometry, thread limits, the
    TPC-W think time, the monitoring interval and so on.  Defaults follow the
    paper where it states a value (1 GB heap, 15-second monitoring marks,
    shopping mix) and use plausible mid-2000s Tomcat/Linux values elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.testbed.clock import TICK_SECONDS

__all__ = ["MachineDescription", "TestbedConfig"]


@dataclass(frozen=True)
class MachineDescription:
    """Static description of the paper's physical machines (Table 1)."""

    clients_db_hardware: str = "2-way Intel XEON 2.4 GHz with 2 GB RAM"
    app_server_hardware: str = "4-way Intel XEON 1.4 GHz with 2 GB RAM"
    clients_db_os: str = "Linux 2.6.8-3-686"
    app_server_os: str = "Linux 2.6.15"
    jvm: str = "jdk1.5 with 1GB heap"
    clients_software: str = "TPC-W Clients"
    database_software: str = "MySQL 5.0.67"
    app_server_software: str = "Tomcat 5.5.26"

    def rows(self) -> list[tuple[str, str, str]]:
        """Return the (row label, clients/DB column, app-server column) rows."""
        return [
            ("Hardware", self.clients_db_hardware, self.app_server_hardware),
            ("Operating System", self.clients_db_os, self.app_server_os),
            ("JVM", "-", self.jvm),
            ("Software", f"{self.clients_software} / {self.database_software}", self.app_server_software),
        ]


@dataclass
class TestbedConfig:
    """Tunable parameters of the simulated three-tier environment.

    Attributes
    ----------
    heap_max_mb:
        Maximum Java heap size; the paper runs Tomcat with a 1 GB heap.
    young_capacity_mb:
        Size of the Young generation.  Transient per-request allocations live
        here and are collected by minor GCs.
    old_initial_mb / old_resize_step_mb:
        Initial committed size of the Old generation and the increment applied
        each time the heap management resizes it.  The resizes are what create
        the "flat zones" discussed around Figure 1 of the paper.
    perm_mb:
        Permanent generation size (constant during the paper's experiments).
    promotion_fraction:
        Fraction of the Young occupancy that survives a minor GC and is
        promoted to the Old zone as short-lived "floating garbage".
    full_gc_release_fraction:
        Fraction of that floating garbage a full GC manages to reclaim.
    max_threads:
        Thread limit of the application server; exceeding it crashes the
        server (thread-exhaustion aging, Experiment 4.4).
    base_worker_threads:
        Worker threads Tomcat keeps alive regardless of load.
    thread_stack_mb:
        Native stack memory each thread pins at the OS level.
    thread_heap_overhead_mb:
        Java-heap bytes each leaked thread object retains (the paper notes
        that "every Java Thread has an impact over the Tomcat Memory").
    system_memory_mb / swap_mb / os_base_memory_mb / mysql_memory_mb /
    jvm_overhead_mb / disk_capacity_mb:
        Operating-system level capacities used by the OS view of Figure 2.
    mean_think_time_s:
        TPC-W thinking time between consecutive requests of one emulated
        browser (the specification uses a 7-second mean).
    base_service_time_s:
        Service demand of a request at negligible load.
    request_memory_mb:
        Transient Young-generation allocation per request.
    monitoring_interval_s:
        Seconds between monitoring samples (the paper's 15-second "marks").
    cpu_cores:
        Cores of the application server (Table 1: 4-way Xeon); used by the
        load-average model.
    """

    #: Tell pytest not to collect this dataclass (its name matches ``Test*``).
    __test__ = False

    heap_max_mb: float = 1024.0
    young_capacity_mb: float = 64.0
    old_initial_mb: float = 256.0
    old_resize_step_mb: float = 192.0
    perm_mb: float = 64.0
    promotion_fraction: float = 0.02
    full_gc_release_fraction: float = 0.85
    max_threads: int = 2048
    base_worker_threads: int = 25
    thread_stack_mb: float = 1.0
    thread_heap_overhead_mb: float = 0.05
    system_memory_mb: float = 2048.0
    swap_mb: float = 2048.0
    os_base_memory_mb: float = 300.0
    mysql_memory_mb: float = 380.0
    jvm_overhead_mb: float = 60.0
    disk_capacity_mb: float = 70_000.0
    disk_base_used_mb: float = 21_000.0
    log_mb_per_request: float = 0.0003
    mean_think_time_s: float = 7.0
    base_service_time_s: float = 0.05
    request_memory_mb: float = 0.2
    monitoring_interval_s: float = 15.0
    cpu_cores: int = 4
    #: Length of one simulation step: the constant ``TICK_SECONDS``, readable
    #: here but not a field, so no configuration can set another value.
    tick_seconds: ClassVar[float] = TICK_SECONDS

    def __post_init__(self) -> None:
        if self.heap_max_mb <= 0:
            raise ValueError("heap_max_mb must be positive")
        if self.young_capacity_mb <= 0:
            raise ValueError("young_capacity_mb must be positive")
        if self.old_initial_mb <= 0:
            raise ValueError("old_initial_mb must be positive")
        if self.old_initial_mb > self.max_old_mb:
            raise ValueError("old_initial_mb cannot exceed the maximum Old-zone size")
        if self.old_resize_step_mb <= 0:
            raise ValueError("old_resize_step_mb must be positive")
        if not 0.0 <= self.promotion_fraction <= 1.0:
            raise ValueError("promotion_fraction must be in [0, 1]")
        if not 0.0 <= self.full_gc_release_fraction <= 1.0:
            raise ValueError("full_gc_release_fraction must be in [0, 1]")
        if self.max_threads <= self.base_worker_threads:
            raise ValueError("max_threads must exceed base_worker_threads")
        if self.mean_think_time_s <= 0:
            raise ValueError("mean_think_time_s must be positive")
        if self.monitoring_interval_s <= 0:
            raise ValueError("monitoring_interval_s must be positive")

    @property
    def max_old_mb(self) -> float:
        """Upper bound of the Old generation: heap minus Young and Permanent."""
        return self.heap_max_mb - self.young_capacity_mb - self.perm_mb

    def scaled_for_fast_runs(self, factor: float = 4.0) -> "TestbedConfig":
        """Return a copy with a proportionally smaller heap and thread limit.

        Unit tests and quick examples do not need multi-hour simulated runs;
        dividing the exhaustible capacities by ``factor`` shortens the time to
        crash while preserving every qualitative behaviour (resizes, GC,
        thread pressure).
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return TestbedConfig(
            heap_max_mb=self.heap_max_mb / factor,
            young_capacity_mb=self.young_capacity_mb / factor,
            old_initial_mb=self.old_initial_mb / factor,
            old_resize_step_mb=self.old_resize_step_mb / factor,
            perm_mb=self.perm_mb / factor,
            promotion_fraction=self.promotion_fraction,
            full_gc_release_fraction=self.full_gc_release_fraction,
            max_threads=max(int(self.max_threads / factor), self.base_worker_threads + 8),
            base_worker_threads=self.base_worker_threads,
            thread_stack_mb=self.thread_stack_mb,
            thread_heap_overhead_mb=self.thread_heap_overhead_mb,
            system_memory_mb=self.system_memory_mb,
            swap_mb=self.swap_mb,
            os_base_memory_mb=self.os_base_memory_mb,
            mysql_memory_mb=self.mysql_memory_mb,
            jvm_overhead_mb=self.jvm_overhead_mb,
            disk_capacity_mb=self.disk_capacity_mb,
            disk_base_used_mb=self.disk_base_used_mb,
            log_mb_per_request=self.log_mb_per_request,
            mean_think_time_s=self.mean_think_time_s,
            base_service_time_s=self.base_service_time_s,
            request_memory_mb=self.request_memory_mb,
            monitoring_interval_s=self.monitoring_interval_s,
            cpu_cores=self.cpu_cores,
        )
