"""Adaptive on-line model lifecycle: drift detection and champion/challenger.

The paper trains its TTF predictor off-line and deploys it; this package
keeps the deployed model honest at runtime.  A
:class:`~repro.lifecycle.manager.ManagedOnlineMonitor` wraps the streaming
monitor, watches the live forecast-consistency error
(:mod:`repro.lifecycle.drift`), and on confirmed drift trains challengers on
pseudo-labelled windows of the live trace
(:mod:`repro.lifecycle.training`), promoting one only when it beats the
champion on a held-out gate.  Deterministic end to end: seeded runs drift,
retrain and promote byte-identically, and the test suite pins the same
results on its per-second reference loop.
"""

from repro.lifecycle.drift import (
    DomainNoveltyDetector,
    PageHinkleyDetector,
    RollingErrorTracker,
)
from repro.lifecycle.manager import LifecycleConfig, LifecycleEvent, ManagedOnlineMonitor
from repro.lifecycle.training import GateDecision, pseudo_label_samples, train_challenger

__all__ = [
    "DomainNoveltyDetector",
    "GateDecision",
    "LifecycleConfig",
    "LifecycleEvent",
    "ManagedOnlineMonitor",
    "PageHinkleyDetector",
    "RollingErrorTracker",
    "pseudo_label_samples",
    "train_challenger",
]
