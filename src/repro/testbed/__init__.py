"""Simulated three-tier TPC-W / Tomcat / MySQL testbed.

The paper evaluates its predictor on a physical testbed (Table 1): a TPC-W
online bookstore served by Apache Tomcat backed by MySQL, with TPC-W emulated
browsers generating load and a modified search servlet injecting aging faults.
This subpackage is the reproduction's substitute for that hardware: a
deterministic, discrete-time simulation that reproduces the *phenomena* the
predictor has to cope with --

* workload-coupled random memory-leak injection (parameter ``N``),
* workload-independent thread-leak injection (parameters ``M`` and ``T``),
* a generational JVM heap whose Old-zone resizes create the nonlinear "flat
  zones" of Figure 1,
* the OS-level versus JVM-level monitoring duality of Figure 2 (Linux never
  hands back memory a process has freed),
* crash-on-exhaustion semantics (OutOfMemory or thread exhaustion), and
* a monitoring subsystem sampling every raw variable of Table 2 at a fixed
  interval.

The entry point is :class:`repro.testbed.engine.TestbedSimulation`.
"""

from repro.testbed.config import MachineDescription, TestbedConfig
from repro.testbed.engine import ScheduledAction, TestbedSimulation
from repro.testbed.errors import OutOfMemoryError, ServerCrash, ThreadExhaustionError
from repro.testbed.faults import (
    MemoryLeakInjector,
    PeriodicPatternInjector,
    ThreadLeakInjector,
)
from repro.testbed.fluid import FluidFleet, FluidLeakRates, FluidMixStats
from repro.testbed.monitoring import MonitoringSample, Trace

__all__ = [
    "FluidFleet",
    "FluidLeakRates",
    "FluidMixStats",
    "MachineDescription",
    "MemoryLeakInjector",
    "MonitoringSample",
    "OutOfMemoryError",
    "PeriodicPatternInjector",
    "ScheduledAction",
    "ServerCrash",
    "TestbedConfig",
    "TestbedSimulation",
    "ThreadExhaustionError",
    "ThreadLeakInjector",
    "Trace",
]
