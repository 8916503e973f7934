"""Adaptive model lifecycle: surviving a fault the training set never saw.

The paper trains its TTF predictor off-line and deploys it unchanged.  This
example closes the loop the paper leaves open: the deployed model is a
*champion* that can be dethroned when the world drifts away from its
training data.

The scenario: a server ages under a plain memory leak -- exactly what the
champion was trained on -- and mid-run the fault morphs into a thread leak
the training set never contained.  The static champion keeps explaining the
world through memory speeds and forecasts a long healthy future while the
thread pool marches toward exhaustion.  The managed monitor
(``ManagedOnlineMonitor``) notices the thread gauge leave the champion's
training domain, declares drift, retrains challengers on the live window
with Equation (1) pseudo-labels, and promotes the ones that beat the
incumbent on a held-out slice of the freshest marks.

Everything is seeded, so the drift marks, gate verdicts and error figures
below reproduce byte-for-byte.

Run it with::

    python examples/adaptive_lifecycle.py
"""

from repro import api
from repro.core import format_duration
from repro.experiments.lifecycle import run_lifecycle_experiment
from repro.experiments.scenarios import ExperimentScenarios


def main() -> None:
    scenarios = ExperimentScenarios.fast()
    print(
        "Streaming the morphing run (memory leak, then a thread leak at "
        f"t={scenarios.morph_time_seconds:.0f}s) through a static and a managed monitor..."
    )
    result = run_lifecycle_experiment(scenarios)

    print(f"\n{result.summary()}\n")
    print(
        f"The managed monitor retrained through {result.generations} generations and "
        f"recovered {format_duration(result.post_morph_improvement)} of post-morph "
        f"forecast error over the static champion."
    )
    print(f"lifecycle wins: {result.lifecycle_wins()}")

    print("\nThe same experiment through the unified API")
    print("(equivalently: repro run lifecycle --scale small --out results/lifecycle.json)...")
    run = api.run("lifecycle", scale="small")
    for key in (
        "static.post_morph_mae_seconds",
        "managed.post_morph_mae_seconds",
        "num_drifts",
        "num_promotions",
        "generations",
    ):
        print(f"  {key:32s} {run.metrics[key]}")


if __name__ == "__main__":
    main()
