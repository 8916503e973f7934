"""The ``AgingPredictor`` facade: train on failure runs, predict time to failure.

This is the user-facing entry point of the reproduction.  It bundles the
feature catalogue, the dataset builder, the chosen learner (M5P by default,
linear regression and the regression tree as baselines) and the paper's
evaluation measures behind a small API::

    predictor = AgingPredictor(model="m5p")
    predictor.fit(training_traces)
    predictions = predictor.predict_trace(test_trace)
    evaluation = predictor.evaluate_trace(test_trace)
    print(evaluation.summary())

The model-size attributes (leaves, inner nodes, training instances) mirror
the figures the paper reports for every experiment.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

import numpy as np

from repro.core.dataset import INFINITE_TTF_SECONDS, AgingDataset, build_dataset
from repro.core.evaluation import PredictionEvaluation, evaluate_predictions
from repro.core.features import DEFAULT_WINDOW, FeatureCatalog, FeatureStream
from repro.ml.linear_regression import LinearRegressionModel
from repro.ml.m5p import M5PModelTree
from repro.ml.regression_tree import RegressionTree
from repro.testbed.monitoring.collector import Trace

__all__ = ["AgingPredictor"]

ModelName = Literal["m5p", "linear", "tree"]


class AgingPredictor:
    """Time-to-failure predictor built on the Table 2 variable set.

    Parameters
    ----------
    model:
        ``"m5p"`` (the paper's choice), ``"linear"`` (the baseline of Tables 3
        and 4) or ``"tree"`` (the plain regression tree of [14]).
    window:
        Sliding-window length for the derived variables, in monitoring marks.
    min_instances:
        Minimum training instances per leaf for the tree-based learners (the
        paper uses 10).
    min_std_fraction:
        Purity floor of the tree growers: a node stops splitting once its
        target standard deviation falls below this fraction of the root's
        (0.05 in M5').  Lifecycle challengers lower it, because live windows
        mix "infinite horizon" labels with near-crash countdowns and the
        inflated root deviation would otherwise leave the countdown region
        unsplit.
    feature_names:
        Optional subset of Table 2 variables to train on; this is how the
        expert feature selection of Experiment 4.3 is expressed.
    infinite_ttf:
        Label used for non-crashing training runs (3 hours in the paper).
    clip_predictions:
        Clamp predictions to ``[0, infinite_ttf]``; a predicted time to
        failure cannot be negative and anything beyond the "infinite" horizon
        means "no aging detected".
    """

    def __init__(
        self,
        model: ModelName = "m5p",
        window: int = DEFAULT_WINDOW,
        min_instances: int = 10,
        min_std_fraction: float = 0.05,
        feature_names: Sequence[str] | None = None,
        infinite_ttf: float = INFINITE_TTF_SECONDS,
        clip_predictions: bool = True,
    ) -> None:
        if model not in ("m5p", "linear", "tree"):
            raise ValueError(f"unknown model {model!r}; expected 'm5p', 'linear' or 'tree'")
        if min_instances < 1:
            raise ValueError("min_instances must be at least 1")
        if not 0.0 <= min_std_fraction < 1.0:
            raise ValueError("min_std_fraction must be in [0, 1)")
        if infinite_ttf <= 0:
            raise ValueError("infinite_ttf must be positive")
        self.model_name: ModelName = model
        self.window = window
        self.min_instances = min_instances
        self.min_std_fraction = min_std_fraction
        self.requested_features = list(feature_names) if feature_names is not None else None
        self.infinite_ttf = float(infinite_ttf)
        self.clip_predictions = clip_predictions

        self._catalog = FeatureCatalog(window=window)
        self._model: M5PModelTree | LinearRegressionModel | RegressionTree | None = None
        self._training_dataset: AgingDataset | None = None
        self._selected_names: list[str] = []
        self._selected_indices: list[int] | None = None

    # ------------------------------------------------------------------- fit

    def fit(self, traces: Iterable[Trace]) -> "AgingPredictor":
        """Train on one or more (typically crashed) testbed traces."""
        dataset = build_dataset(traces, catalog=self._catalog, infinite_ttf=self.infinite_ttf)
        return self.fit_dataset(dataset)

    def fit_dataset(self, dataset: AgingDataset) -> "AgingPredictor":
        """Train on a pre-built dataset (used by experiments and ablations)."""
        if self.requested_features is not None:
            dataset = dataset.select_feature_names(self.requested_features)
        self._selected_names = list(dataset.feature_names)
        self._model = self._build_model(self._selected_names)
        self._model.fit(dataset.features, dataset.targets)
        self._training_dataset = dataset
        self._selected_indices = None
        return self

    def _build_model(self, names: list[str]) -> M5PModelTree | LinearRegressionModel | RegressionTree:
        if self.model_name == "m5p":
            return M5PModelTree(
                min_instances=self.min_instances,
                min_std_fraction=self.min_std_fraction,
                attribute_names=names,
            )
        if self.model_name == "linear":
            return LinearRegressionModel(attribute_names=names)
        return RegressionTree(
            min_samples_leaf=self.min_instances,
            min_variance_fraction=self.min_std_fraction,
            attribute_names=names,
        )

    # --------------------------------------------------------------- predict

    def predict_trace(self, trace: Trace) -> np.ndarray:
        """Predict the time to failure at every monitoring mark of a trace."""
        columns = self._catalog_columns()
        matrix, _ = self._catalog.compute(trace)
        return self._forecast(matrix, columns)

    def feature_stream(self) -> "FeatureStream":
        """Open an incremental computer of this predictor's feature rows.

        Push monitoring samples into the stream and hand each returned row to
        :meth:`predict_row`; the pair replays :meth:`predict_trace`'s newest
        prediction bit-for-bit at O(window) per mark instead of O(history).
        """
        return self._catalog.stream()

    def predict_row(self, row: np.ndarray) -> float:
        """Predict the time to failure of one catalogue-ordered feature row.

        ``row`` must come from :meth:`feature_stream` (full catalogue order);
        feature selection and clipping are applied exactly as in
        :meth:`predict_trace`, and every model predicts rows independently,
        so the result matches the batch path's last value bit-for-bit.
        """
        return float(self._forecast(row.reshape(1, -1), self._catalog_columns())[0])

    def predict_matrix(self, rows: np.ndarray) -> np.ndarray:
        """Predict the time to failure of a batch of catalogue-ordered rows.

        The vectorized twin of :meth:`predict_row`: ``rows`` is a
        ``[marks, features]`` matrix in full catalogue order (one row per
        node or per mark), feature selection and clipping apply exactly as
        in :meth:`predict_trace`.  The fluid cluster engine predicts every
        due node's mark through this in one call.
        """
        columns = self._catalog_columns()
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D [marks, features] matrix")
        return self._forecast(rows, columns)

    def predict_dataset(self, dataset: AgingDataset) -> np.ndarray:
        """Predict the targets of a pre-built dataset (column-aligned)."""
        self._require_fitted()
        if dataset.feature_names != self._selected_names:
            dataset = dataset.select_feature_names(self._selected_names)
        return self._forecast(dataset.features, None)

    def _catalog_columns(self) -> list[int] | None:
        """The trained columns of a full catalogue row (``None``: all of them)."""
        self._require_fitted()
        if self.requested_features is None:
            return None
        if self._selected_indices is None:
            names = self._catalog.feature_names
            self._selected_indices = [names.index(name) for name in self._selected_names]
        return self._selected_indices

    def _forecast(self, rows: np.ndarray, columns: list[int] | None) -> np.ndarray:
        """Keep the trained ``columns`` of ``rows``, predict and clip.

        Every ``predict_*`` method ends here, so feature selection and
        clipping are the same on the batch, streaming and dataset paths.
        """
        if columns is not None:
            rows = rows[:, columns]
        predictions = self._require_fitted().predict(rows)
        if self.clip_predictions:
            predictions = np.clip(predictions, 0.0, self.infinite_ttf)
        return predictions

    # -------------------------------------------------------------- evaluate

    def evaluate_trace(self, trace: Trace, **evaluation_kwargs) -> PredictionEvaluation:
        """Predict a crashed trace and score it with MAE / S-MAE / PRE / POST."""
        if not trace.crashed or trace.crash_time_seconds is None:
            raise ValueError("evaluation requires a crashed trace with a known crash time")
        predictions = self.predict_trace(trace)
        return evaluate_predictions(
            times=trace.times(),
            true_ttf=trace.time_to_failure(),
            predicted_ttf=predictions,
            crash_time=trace.crash_time_seconds,
            **evaluation_kwargs,
        )

    # ------------------------------------------------------------ inspection

    def _require_fitted(self):
        if self._model is None:
            raise RuntimeError("the predictor has not been fitted yet")
        return self._model

    @property
    def is_fitted(self) -> bool:
        return self._model is not None

    @property
    def catalog(self) -> FeatureCatalog:
        """The Table 2 feature catalogue (shared so retrained models align columns)."""
        return self._catalog

    @property
    def model(self) -> M5PModelTree | LinearRegressionModel | RegressionTree:
        """The underlying fitted learner (for inspection and root-cause analysis)."""
        return self._require_fitted()

    @property
    def feature_names(self) -> list[str]:
        """Names of the features the model was actually trained on."""
        self._require_fitted()
        return list(self._selected_names)

    @property
    def training_dataset(self) -> AgingDataset:
        """The dataset the model was fitted on (for clones and retraining)."""
        if self._training_dataset is None:
            raise RuntimeError("the predictor has not been fitted yet")
        return self._training_dataset

    @property
    def num_training_instances(self) -> int:
        return self.training_dataset.num_instances

    @property
    def num_leaves(self) -> int | None:
        """Leaves of the fitted tree model (``None`` for linear regression)."""
        model = self._require_fitted()
        return model.num_leaves if hasattr(model, "num_leaves") else None

    @property
    def num_inner_nodes(self) -> int | None:
        """Inner nodes of the fitted tree model (``None`` for linear regression)."""
        model = self._require_fitted()
        return model.num_inner_nodes if hasattr(model, "num_inner_nodes") else None

    def describe_model(self) -> str:
        """Human-readable rendering of the fitted model."""
        return self._require_fitted().describe()
