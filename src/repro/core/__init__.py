"""The paper's prediction framework.

This package turns testbed traces into the Table 2 variable set (raw metrics
plus sliding-window-average derived variables), labels every monitoring mark
with its true time to failure, trains the chosen learner and evaluates
predictions with the paper's accuracy measures (MAE, S-MAE, PRE-MAE and
POST-MAE).  It also hosts the pieces around the headline result: expert
feature selection (Experiment 4.3), root-cause analysis from the learned tree
(Section 4.4), the online adaptive monitor and the prediction-board ensemble
sketched as future work.
"""

from repro.core.dataset import AgingDataset, build_dataset
from repro.core.ensemble import PredictionBoard
from repro.core.evaluation import PredictionEvaluation, evaluate_predictions, format_duration
from repro.core.feature_selection import (
    VARIABLE_GROUPS,
    correlation_ranking,
    select_by_group,
    select_heap_variables,
)
from repro.core.features import DEFAULT_WINDOW, FeatureBank, FeatureCatalog
from repro.core.online import OnlineAgingMonitor, OnlinePrediction
from repro.core.predictor import AgingPredictor
from repro.core.root_cause import RootCauseReport, analyse_root_cause

__all__ = [
    "AgingDataset",
    "AgingPredictor",
    "DEFAULT_WINDOW",
    "FeatureBank",
    "FeatureCatalog",
    "OnlineAgingMonitor",
    "OnlinePrediction",
    "PredictionBoard",
    "PredictionEvaluation",
    "RootCauseReport",
    "VARIABLE_GROUPS",
    "analyse_root_cause",
    "build_dataset",
    "correlation_ranking",
    "evaluate_predictions",
    "format_duration",
    "select_by_group",
    "select_heap_variables",
]
