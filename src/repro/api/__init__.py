"""Unified experiment API: one entry point over every driver in the repo.

Instead of five ad-hoc driver signatures, every experiment is a named,
declaratively specified entry in a registry and runs through one call::

    from repro import api

    result = api.run("exp41", scale="small", seed=7)
    print(result.summary())
    text = result.to_json()                  # lossless, byte-stable JSON
    again = api.RunResult.from_json(text)    # again == result

The same registry powers the ``repro`` command-line interface
(``repro list`` / ``repro describe`` / ``repro run`` / ``repro batch`` /
``repro sweep`` / ``repro collect``, also reachable as ``python -m repro``),
which writes the serialized envelope to disk so scenario sweeps become a
data problem instead of a code problem.

Because every run is a pure seeded function of its resolved parameters,
grids of runs parallelize and cache for free: :func:`expand_sweep` turns
range/list expressions (``seed="1..20"``, ``scale="small,paper"``) into a
deterministic list of :class:`RunPoint`\\ s, :func:`run_points` dispatches
them over a process pool (``workers=1`` for the sequential path —
byte-identical artifacts either way), and :class:`ResultStore` serves
already-computed points straight from their content-addressed envelopes::

    from repro import api

    points = api.expand_sweep("exp41", {"seed": "1..20", "scale": "small"})
    outcomes = api.run_points(points, api.ResultStore("results/exp41"), workers=4)
    summary = api.collect_results("results/exp41")

Registered experiments
----------------------

===================  ==========  ====================================================
name                 category    reproduces
===================  ==========  ====================================================
``exp41``            experiment  Experiment 4.1 — deterministic aging (Table 3)
``exp42``            experiment  Experiment 4.2 — dynamic, rate-changing aging (Fig. 3)
``exp43``            experiment  Experiment 4.3 — periodic masking pattern + expert
                                 feature selection (Fig. 4, Table 4)
``exp44``            experiment  Experiment 4.4 — two aging resources + root cause
                                 (Fig. 5)
``figure1``          figure      Figure 1 — nonlinear memory under a constant leak
``figure2``          figure      Figure 2 — OS-level vs JVM-level view of a periodic
                                 pattern
``ablation_window``  ablation    sliding-window length sweep
``ablation_derived`` ablation    derived consumption-speed variables on/off
``ablation_smoothing`` ablation  M5P smoothing on/off
``ablation_margin``  ablation    S-MAE security-margin sweep
``cluster``          cluster     rolling predictive rejuvenation vs both baselines
                                 (``kind`` = memory / threads / two_resource)
===================  ==========  ====================================================

Every spec shares the common parameters ``scale`` (``"small"`` /
``"paper"``) and ``seed`` (master seed, bit-for-bit reproducible);
``figure2`` adds ``num_cycles``, ``lifecycle`` its drift and retraining
settings, and ``cluster`` adds ``engine`` (the fleet tier: ``"event"`` /
``"fluid"``) and ``kind``.  Use
``api.get_spec(name).describe()`` — or ``repro describe <name>`` — for the
full parameter schema of any entry.

Any run can be observed without perturbing it: pass a
:class:`~repro.telemetry.Telemetry` hub (re-exported here) to
:func:`run`, or ``trace=True`` to :func:`run_points`, and the engines
record a deterministic sim-time trace whose canonical digest lands on
``result.telemetry_digest`` — see :mod:`repro.telemetry`.
"""

from repro.api.executor import PointOutcome, run_points
from repro.telemetry import Telemetry, activate
from repro.api.registry import (
    REGISTRY,
    get_spec,
    list_experiments,
    match_experiments,
    register,
    run,
)
from repro.api.result import SCHEMA_VERSION, RunResult, content_key
from repro.api.spec import SCALES, ExperimentSpec, ParamSpec
from repro.api.store import ResultStore, collect_results, summary_json
from repro.api.sweep import RunPoint, batch_points, expand_sweep, parse_values

__all__ = [
    "REGISTRY",
    "PointOutcome",
    "ResultStore",
    "RunPoint",
    "RunResult",
    "SCALES",
    "SCHEMA_VERSION",
    "ExperimentSpec",
    "ParamSpec",
    "Telemetry",
    "activate",
    "batch_points",
    "collect_results",
    "content_key",
    "expand_sweep",
    "get_spec",
    "list_experiments",
    "match_experiments",
    "parse_values",
    "register",
    "run",
    "run_points",
    "summary_json",
]
