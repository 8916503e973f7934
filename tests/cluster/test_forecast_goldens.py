"""Forecasts pinned end to end: the fluid tier's batches and a recorded tree.

The parity suites elsewhere compare two runs of the same code, so a change
that moved every forecast alike would pass them all.  These tests pin what a
changed forecast would move:

* every ``predict_matrix`` batch a seeded fluid fleet asks for must equal
  the row-at-a-time oracle (``tests/ml/oracle.py``) bit for bit;
* the M5P tree in ``forecast_goldens.json``, rebuilt from its ``float.hex``
  splits, terms and intercepts, must predict the fleet rows stored with it
  exactly as the row-at-a-time loops did before the vectorised kernels
  replaced them.  The tree is loaded, not fitted, and prediction is
  elementwise IEEE arithmetic, so the recorded bytes hold on every platform.
"""

import base64
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.coordinator import RollingPredictiveRejuvenation
from repro.cluster.routing import AgingAwareRouting
from repro.experiments.cluster import build_cluster_engine
from repro.ml.linear_regression import LinearRegressionModel, _FittedState
from repro.ml.m5p import M5Node, M5PModelTree
from tests.ml import oracle

GOLDENS = json.loads(Path(__file__).with_name("forecast_goldens.json").read_text())


def recorded_tree(smoothing: bool) -> M5PModelTree:
    """The golden tree, node by node; fields prediction never reads are left at zero."""
    names = GOLDENS["attributes"]

    def build(doc: dict, depth: int) -> M5Node:
        coefficients = np.zeros(len(names))
        for column, value in doc["terms"]:
            coefficients[column] = float.fromhex(value)
        model = LinearRegressionModel(attribute_names=names)
        model._state = _FittedState(
            coefficients=coefficients,
            intercept=float.fromhex(doc["intercept"]),
            selected=[column for column, _ in doc["terms"]],
            attribute_names=list(names),
            training_rows=doc["samples"],
            training_sse=0.0,
        )
        node = M5Node(num_samples=doc["samples"], depth=depth, mean=0.0, std=0.0, model=model)
        if "split" in doc:
            node.split_attribute = doc["split"][0]
            node.split_value = float.fromhex(doc["split"][1])
            node.left = build(doc["left"], depth + 1)
            node.right = build(doc["right"], depth + 1)
        return node

    tree = M5PModelTree(smoothing=smoothing, attribute_names=names)
    tree._root = build(GOLDENS["tree"], 0)
    tree._names = list(names)
    return tree


def test_every_fluid_batch_matches_the_row_oracle(fast_scenario, fitted_predictor, monkeypatch):
    scenario = replace(fast_scenario, num_nodes=24, total_ebs=24 * 40, max_concurrent_restarts=8)
    batches = []
    predict_matrix = fitted_predictor.predict_matrix

    def recording(rows):
        forecasts = predict_matrix(rows)
        batches.append((np.array(rows), forecasts.copy()))
        return forecasts

    monkeypatch.setattr(fitted_predictor, "predict_matrix", recording)
    engine = build_cluster_engine(
        scenario,
        RollingPredictiveRejuvenation(
            max_concurrent_restarts=scenario.max_concurrent_restarts,
            min_active_fraction=scenario.min_active_fraction,
        ),
        routing_policy=AgingAwareRouting(ttf_comfort_seconds=scenario.ttf_comfort_seconds),
        predictor=fitted_predictor,
        fleet_engine="fluid",
    )
    outcome = engine.run(scenario.horizon_seconds)
    assert outcome.rejuvenations > 0
    assert len(batches) > 100 and max(len(rows) for rows, _ in batches) > 1

    names = fitted_predictor.catalog.feature_names
    columns = [names.index(name) for name in fitted_predictor.feature_names]
    for rows, forecasts in batches:
        expected = np.clip(
            oracle.predict_rows(oracle.m5p_row, fitted_predictor.model, rows[:, columns]),
            0.0,
            fitted_predictor.infinite_ttf,
        )
        assert forecasts.tobytes() == expected.tobytes()


@pytest.mark.parametrize("smoothing", [True, False], ids=["smoothed", "unsmoothed"])
def test_recorded_tree_reproduces_the_recorded_forecasts(smoothing):
    tree = recorded_tree(smoothing)
    rows = np.array([np.frombuffer(base64.urlsafe_b64decode(row), "<f8") for row in GOLDENS["rows"]])
    recorded = GOLDENS["forecasts"]["smoothed" if smoothing else "unsmoothed"]
    expected = np.array([float.fromhex(value) for value in recorded]).tobytes()
    assert rows.shape == (len(recorded), len(GOLDENS["attributes"]))

    assert tree.predict(rows).tobytes() == expected
    assert np.array([tree.predict(row) for row in rows]).tobytes() == expected
    assert oracle.predict_rows(oracle.m5p_row, tree, rows).tobytes() == expected
