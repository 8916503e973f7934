"""Validation harness: the fluid tier against the exact engines.

The fluid tier's accuracy contract is *aggregate*: on scales the exact
event-driven engine can still cover, the fluid ``ClusterOutcome`` must land
within explicit error bounds of the exact one — availability, crash counts,
mean uptime between crashes (the fleet-level time-to-failure proxy), and the
qualitative policy ordering (rolling predictive wins, with zero crashes and
zero full-outage seconds).  Every bound below is asserted, so a drift in
either tier's physics fails here instead of silently decalibrating the
approximation.

The three-policy comparison reuses the session-scoped exact fixtures
(``experiment_result``) so the suite pays for the exact runs once.
"""

import pytest

from repro.cluster.coordinator import NoClusterRejuvenation
from repro.cluster.engine import ClusterEngine
from repro.cluster.fluid import FluidClusterEngine
from repro.experiments.cluster import run_cluster_experiment

#: Capacity-weighted availability: absolute tolerance between tiers.
AVAILABILITY_TOLERANCE = 0.05

#: Crash counts: within max(CRASH_ABS, CRASH_REL * exact).
CRASH_ABS = 2
CRASH_REL = 0.5

#: Mean uptime between crashes (fleet TTF proxy): relative tolerance.
TTF_RELATIVE_TOLERANCE = 0.30

#: Rejuvenation counts and outage seconds of the restart policies.
REJUVENATION_ABS = 3
REJUVENATION_REL = 0.25
OUTAGE_ABS_SECONDS = 120.0
OUTAGE_REL = 0.25


@pytest.fixture(scope="module")
def fluid_result(fast_scenario, training_traces, fitted_predictor):
    """The three-strategy comparison on the fluid tier (exact training)."""
    return run_cluster_experiment(
        fast_scenario, training=training_traces, predictor=fitted_predictor, engine="fluid"
    )


def _assert_close_counts(fluid, exact, absolute, relative, what):
    bound = max(absolute, relative * exact)
    assert abs(fluid - exact) <= bound, (
        f"{what}: fluid {fluid} vs exact {exact} exceeds ±{bound:.1f}"
    )


def _mean_uptime_per_crash(outcome):
    """Fleet mean uptime between crashes, from per-node outcome data."""
    crashes = sum(node.crashes for node in outcome.per_node)
    if crashes == 0:
        return None
    uptime = sum(node.uptime_seconds for node in outcome.per_node)
    return uptime / crashes


class TestAvailabilityBounds:
    """Availability of every policy within the absolute tolerance."""

    @pytest.mark.parametrize("policy", ["no_rejuvenation", "time_based", "rolling_predictive"])
    def test_policy_availability(self, experiment_result, fluid_result, policy):
        exact = getattr(experiment_result, policy).availability
        fluid = getattr(fluid_result, policy).availability
        assert fluid == pytest.approx(exact, abs=AVAILABILITY_TOLERANCE), (
            f"{policy}: fluid availability {fluid:.4f} vs exact {exact:.4f}"
        )


class TestCrashAndTtfBounds:
    def test_baseline_crash_count(self, experiment_result, fluid_result):
        exact = experiment_result.no_rejuvenation.crashes
        fluid = fluid_result.no_rejuvenation.crashes
        assert exact > 0, "the exact baseline must crash for the comparison to mean anything"
        _assert_close_counts(fluid, exact, CRASH_ABS, CRASH_REL, "no-rejuvenation crashes")

    def test_mean_uptime_between_crashes(self, experiment_result, fluid_result):
        """The fleet-level mean-TTF proxy agrees within the relative bound."""
        exact = _mean_uptime_per_crash(experiment_result.no_rejuvenation)
        fluid = _mean_uptime_per_crash(fluid_result.no_rejuvenation)
        assert exact is not None and fluid is not None
        assert abs(fluid - exact) / exact <= TTF_RELATIVE_TOLERANCE, (
            f"mean uptime/crash: fluid {fluid:.0f}s vs exact {exact:.0f}s"
        )

    def test_time_based_rejuvenation_count(self, experiment_result, fluid_result):
        exact = experiment_result.time_based.rejuvenations
        fluid = fluid_result.time_based.rejuvenations
        _assert_close_counts(
            fluid, exact, REJUVENATION_ABS, REJUVENATION_REL, "time-based rejuvenations"
        )

    def test_time_based_outage_seconds(self, experiment_result, fluid_result):
        exact = experiment_result.time_based.full_outage_seconds
        fluid = fluid_result.time_based.full_outage_seconds
        bound = max(OUTAGE_ABS_SECONDS, OUTAGE_REL * exact)
        assert abs(fluid - exact) <= bound, (
            f"time-based outage: fluid {fluid:.0f}s vs exact {exact:.0f}s (±{bound:.0f}s)"
        )


class TestPolicyOrdering:
    """The qualitative headline survives the tier change."""

    def test_rolling_predictive_wins_on_the_fluid_tier(self, fluid_result):
        assert fluid_result.rolling_wins(), "\n".join(fluid_result.summary_lines())

    def test_rolling_predictive_prevents_crashes(self, experiment_result, fluid_result):
        assert experiment_result.rolling_predictive.crashes == 0
        assert fluid_result.rolling_predictive.crashes == 0
        assert fluid_result.rolling_predictive.full_outage_seconds == 0.0

    def test_rolling_rejuvenation_count(self, experiment_result, fluid_result):
        exact = experiment_result.rolling_predictive.rejuvenations
        fluid = fluid_result.rolling_predictive.rejuvenations
        _assert_close_counts(
            fluid, exact, REJUVENATION_ABS, REJUVENATION_REL, "rolling rejuvenations"
        )


class TestOverlappingScales:
    """No-predictor fleets at several widths/populations, both tiers.

    These cover the overlap envelope beyond the fixture fleet: small and
    wider fleets, light and heavy browser populations, always comparing the
    no-rejuvenation baseline (the policy with the most physics and the least
    coordination to mask it).
    """

    @pytest.mark.parametrize(
        "num_nodes, total_ebs",
        [(2, 40), (4, 160)],
        ids=["2n40e", "4n160e"],
    )
    def test_baseline_agreement(self, fast_scenario, num_nodes, total_ebs):
        kwargs = dict(
            num_nodes=num_nodes,
            config=fast_scenario.config,
            total_ebs=total_ebs,
            injector_factory=fast_scenario.injector_factory,
            coordinator=NoClusterRejuvenation(),
            seed=fast_scenario.cluster_seed,
        )
        exact = ClusterEngine(**kwargs).run(max_seconds=5400.0)
        fluid = FluidClusterEngine(**kwargs).run(max_seconds=5400.0)
        assert fluid.availability == pytest.approx(exact.availability, abs=AVAILABILITY_TOLERANCE)
        _assert_close_counts(
            fluid.crashes, exact.crashes, CRASH_ABS, CRASH_REL, f"{num_nodes}n/{total_ebs}e crashes"
        )
        assert fluid.horizon_seconds == exact.horizon_seconds

    def test_served_volume_same_order(self, experiment_result, fluid_result):
        """Served request totals agree within 15% — the closed-loop arrival
        rate reproduces the browsers' aggregate demand."""
        exact = experiment_result.no_rejuvenation.served_requests
        fluid = fluid_result.no_rejuvenation.served_requests
        assert exact > 0
        assert abs(fluid - exact) / exact <= 0.15, (
            f"served requests: fluid {fluid} vs exact {exact}"
        )
