"""Shared fixtures for the prediction-framework tests.

Traces are generated once per test session from a scaled-down testbed so the
feature, dataset and predictor tests all work on realistic (but quickly
produced) aging runs.  The full-catalogue M5P predictor fitted on them takes
seconds to build, so it is fitted once too and shared by every test that only
reads a fitted predictor.
"""

import pytest

from repro.core.predictor import AgingPredictor
from repro.testbed.config import TestbedConfig
from repro.testbed.engine import TestbedSimulation
from repro.testbed.faults.memory_leak import MemoryLeakInjector
from repro.testbed.faults.thread_leak import ThreadLeakInjector


def fast_config() -> TestbedConfig:
    return TestbedConfig(
        heap_max_mb=160.0,
        young_capacity_mb=16.0,
        old_initial_mb=48.0,
        old_resize_step_mb=32.0,
        perm_mb=16.0,
        max_threads=96,
        base_worker_threads=16,
    )


def memory_leak_trace(ebs: int, n: int, seed: int):
    simulation = TestbedSimulation(
        config=fast_config(),
        workload_ebs=ebs,
        injectors=[MemoryLeakInjector(n=n, seed=seed)],
        seed=seed,
    )
    return simulation.run(max_seconds=14_400)


@pytest.fixture(scope="session")
def training_traces():
    """Crashed memory-leak runs at three workloads (like the paper's training)."""
    return [memory_leak_trace(20, 20, 1), memory_leak_trace(40, 20, 2), memory_leak_trace(60, 20, 3)]


@pytest.fixture(scope="session")
def test_trace():
    """A crashed run at a workload not present in the training set."""
    return memory_leak_trace(30, 20, 7)


@pytest.fixture(scope="session")
def healthy_trace():
    """A short run without any fault injection (does not crash)."""
    simulation = TestbedSimulation(config=fast_config(), workload_ebs=20, seed=9)
    return simulation.run(max_seconds=1200)


@pytest.fixture(scope="session")
def thread_leak_trace():
    """A crashed run whose aging resource is threads rather than memory."""
    simulation = TestbedSimulation(
        config=fast_config(),
        workload_ebs=20,
        injectors=[ThreadLeakInjector(m=6, t=30, seed=11)],
        seed=11,
    )
    return simulation.run(max_seconds=14_400)


@pytest.fixture(scope="session")
def m5p_predictor(training_traces):
    """``AgingPredictor(model="m5p")`` fitted on ``training_traces``.

    Shared and read-only: a test that needs to fit, refit or mutate a
    predictor builds its own.
    """
    return AgingPredictor(model="m5p").fit(training_traces)
