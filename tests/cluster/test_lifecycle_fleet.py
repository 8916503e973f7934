"""Lifecycle-managed monitors inside the fleet: stationary no-regression.

The fleet scenarios are stationary (the injected fault never changes
regime), so per-node drift detection has nothing to find.  The contract is
that wiring :func:`lifecycle_monitor_factory` into the rolling-predictive
strategy changes *nothing*: the same alarms fire on the same ticks and the
whole :class:`ClusterOutcome` -- per-node accounting included -- is equal to
the plain shared-predictor run.  Any divergence means the lifecycle wrapper
leaks into the prediction path.
"""

import pytest

from repro.cluster.coordinator import RollingPredictiveRejuvenation
from repro.cluster.routing import AgingAwareRouting
from repro.experiments.cluster import lifecycle_monitor_factory, run_cluster_policy


def rolling_outcome(scenario, predictor, lifecycle: bool):
    return run_cluster_policy(
        scenario,
        RollingPredictiveRejuvenation(
            max_concurrent_restarts=scenario.max_concurrent_restarts,
            min_active_fraction=scenario.min_active_fraction,
        ),
        routing_policy=AgingAwareRouting(ttf_comfort_seconds=scenario.ttf_comfort_seconds),
        predictor=None if lifecycle else predictor,
        monitor_factory=lifecycle_monitor_factory(scenario, predictor) if lifecycle else None,
    )


@pytest.fixture(scope="module")
def managed(fast_scenario, fitted_predictor):
    """The lifecycle-managed rolling fleet, run once for both checks."""
    return rolling_outcome(fast_scenario, fitted_predictor, lifecycle=True)


class TestStationaryFleetNoRegression:
    def test_lifecycle_fleet_equals_plain_predictive_fleet(self, managed, experiment_result):
        assert managed == experiment_result.rolling_predictive

    def test_managed_fleet_still_beats_the_baselines(self, managed, experiment_result):
        assert managed.availability > experiment_result.no_rejuvenation.availability
        assert managed.availability > experiment_result.time_based.availability
        assert managed.full_outage_seconds == 0.0
