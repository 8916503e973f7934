"""Shared fixtures for the adaptive-lifecycle tests.

The static champion and the morphing trace are the expensive inputs (five
testbed runs between them), so they are produced once per session; the
morphing-scenario experiment result is shared by the acceptance tests.
"""

import pytest

from repro.experiments.lifecycle import (
    run_lifecycle_experiment,
    run_morphing_trace,
    train_static_champion,
)
from repro.experiments.scenarios import ExperimentScenarios
from repro.lifecycle import LifecycleConfig


@pytest.fixture(scope="session")
def fast_scenarios() -> ExperimentScenarios:
    return ExperimentScenarios.fast()


@pytest.fixture(scope="session")
def lifecycle_config(fast_scenarios) -> LifecycleConfig:
    return LifecycleConfig().for_testbed(fast_scenarios.config)


@pytest.fixture(scope="session")
def static_champion(fast_scenarios):
    return train_static_champion(fast_scenarios)


@pytest.fixture(scope="session")
def morph_trace(fast_scenarios):
    return run_morphing_trace(fast_scenarios)


@pytest.fixture(scope="session")
def lifecycle_result(fast_scenarios):
    return run_lifecycle_experiment(fast_scenarios)
