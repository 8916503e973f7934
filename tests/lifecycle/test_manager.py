"""End-to-end lifecycle acceptance on the morphing scenario.

The headline numbers (drift marks, promotion marks, the post-morph MAE the
lifecycle saves over the static champion) are pinned here as committed
margins: the scenario is fully seeded, so any change to these figures is a
behaviour change, not noise.
"""

import copy

import numpy as np
import pytest

from repro.experiments.lifecycle import run_lifecycle_experiment
from repro.lifecycle import LifecycleConfig, ManagedOnlineMonitor
from tests.testbed.oracle import per_second_engine


def fresh_manager(static_champion, lifecycle_config, **kwargs) -> ManagedOnlineMonitor:
    """A manager deploying its own copy of the champion: no two share a model."""
    return ManagedOnlineMonitor(copy.deepcopy(static_champion), lifecycle_config, **kwargs)


class TestMorphingScenario:
    def test_lifecycle_beats_the_static_champion_after_the_morph(self, lifecycle_result):
        assert lifecycle_result.lifecycle_wins()
        # Committed margin: the managed monitor recovers >50s of post-morph
        # MAE (measured ~63s on the fast scenario).
        assert lifecycle_result.post_morph_improvement > 50.0
        assert lifecycle_result.managed_mae < lifecycle_result.static_mae

    def test_no_drift_before_the_morph(self, lifecycle_result):
        """The fix under test: the pre-morph memory regime is exactly what
        the champion was trained on, so any drift alarm there is false."""
        assert lifecycle_result.drift_times
        assert all(
            t >= lifecycle_result.morph_time_seconds for t in lifecycle_result.drift_times
        )

    def test_adaptation_happens(self, lifecycle_result):
        assert lifecycle_result.generations >= 1
        assert lifecycle_result.promotion_times
        assert min(lifecycle_result.promotion_times) > min(lifecycle_result.drift_times)

    def test_byte_identical_across_repeats_and_engines(
        self, fast_scenarios, lifecycle_result, per_second_engine
    ):
        repeat = run_lifecycle_experiment(fast_scenarios)
        with per_second_engine():
            reference = run_lifecycle_experiment(fast_scenarios)
        for again in (repeat, reference):
            assert np.array_equal(
                again.managed_predictions, lifecycle_result.managed_predictions
            )
            assert np.array_equal(again.static_predictions, lifecycle_result.static_predictions)
            assert again.drift_times == lifecycle_result.drift_times
            assert again.promotion_times == lifecycle_result.promotion_times
            assert again.rejection_times == lifecycle_result.rejection_times
            assert again.generations == lifecycle_result.generations
            assert again.managed_post_morph_mae == lifecycle_result.managed_post_morph_mae


class TestManagedMonitor:
    def test_requires_a_monitored_resource(self, static_champion):
        with pytest.raises(ValueError, match="monitored resource"):
            ManagedOnlineMonitor(static_champion, LifecycleConfig())

    def test_gate_verdicts_respect_the_margin(
        self, static_champion, lifecycle_config, morph_trace
    ):
        manager = fresh_manager(static_champion, lifecycle_config)
        manager.replay(morph_trace)
        verdicts = {"champion_promoted": [], "challenger_rejected": []}
        for kind, events in verdicts.items():
            events.extend(manager.events(kind))
        assert verdicts["champion_promoted"]
        for event in verdicts["champion_promoted"]:
            assert event.data["challenger_mae"] < (
                lifecycle_config.gate_margin * event.data["champion_mae"]
            )
        for event in verdicts["challenger_rejected"]:
            assert event.data["challenger_mae"] >= (
                lifecycle_config.gate_margin * event.data["champion_mae"]
            )

    def test_drift_is_triggered_by_the_unseen_resource(
        self, static_champion, lifecycle_config, morph_trace
    ):
        """The thread gauge never left its idle range in training, so the
        morph must be caught as domain novelty on num_threads."""
        manager = fresh_manager(static_champion, lifecycle_config)
        manager.replay(morph_trace)
        first = next(manager.events("drift_detected"))
        assert first.data["trigger"] == "novelty"
        assert first.data["novel_attribute"] == "num_threads"
        assert first.data["novel_value"] > first.data["novel_threshold"]

    def test_reset_replays_like_a_fresh_monitor(
        self, static_champion, lifecycle_config, morph_trace
    ):
        """Rejuvenation interplay: a reset() mid-stream (before any
        promotion) must leave no residue -- the replayed incarnation is
        bit-identical to a monitor that never saw the aborted one."""
        resumed = fresh_manager(static_champion, lifecycle_config)
        for sample in list(morph_trace)[:20]:  # pre-drift marks only
            resumed.observe(sample)
        assert not resumed.history
        resumed.reset()
        fresh = fresh_manager(static_champion, lifecycle_config)
        resumed_predictions = [p.predicted_ttf_seconds for p in resumed.replay(morph_trace)]
        fresh_predictions = [p.predicted_ttf_seconds for p in fresh.replay(morph_trace)]
        assert resumed_predictions == fresh_predictions
        assert [(e.kind, e.time_seconds) for e in resumed.history] == [
            (e.kind, e.time_seconds) for e in fresh.history
        ]
        assert resumed.generation == fresh.generation

    def test_alarm_protocol_is_forwarded(self, static_champion, lifecycle_config, morph_trace):
        manager = fresh_manager(static_champion, lifecycle_config)
        manager.replay(morph_trace)
        assert manager.num_samples == len(morph_trace)
        assert manager.alarm_raised == manager.monitor.alarm_raised
        assert manager.alarm_time == manager.monitor.alarm_time
        assert manager.predicted_series().shape == (len(morph_trace),)
