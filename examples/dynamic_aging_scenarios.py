"""The paper's hard scenarios: dynamic rates and periodic masking patterns.

This example drives, through the unified ``repro.api`` entry point, the two
scenarios the paper uses to argue that software-aging prediction needs more
than a linear trend:

* **Dynamic aging** (``exp42``): the leak rate changes every few minutes —
  no injection, then ``N = 30``, then ``N = 15``, then ``N = 75`` until the
  crash.  The predictor must re-estimate the time to failure as the regime
  changes.
* **Aging hidden in a periodic pattern** (``exp43``): memory is acquired
  and released in cycles, but a little is retained every cycle, so the
  application slowly ages towards a crash that a glance at the OS-level
  memory graph would miss.

Both come back as serializable ``RunResult`` envelopes; the equivalent shell
commands are::

    repro run exp42 --scale small --seed 42
    repro run exp43 --scale small --seed 42

Run it with::

    python examples/dynamic_aging_scenarios.py
"""

from repro import api
from repro.core import format_duration


def describe_adaptation(result: api.RunResult) -> None:
    """Print how the prediction follows the rate changes of Experiment 4.2."""
    starts = result.series["phase_starts_seconds"]
    print("  phase starts (s):", ", ".join(f"{start:.0f}" for start in starts))
    print(f"  run crashed after {format_duration(result.metrics['test_duration_seconds'])}")
    print(
        f"  M5P       : MAE {format_duration(result.metrics['m5p.mae_seconds'])}, "
        f"S-MAE {format_duration(result.metrics['m5p.s_mae_seconds'])}, "
        f"POST-MAE {format_duration(result.metrics['m5p.post_mae_seconds'])}"
    )
    print(
        f"  Linear Reg: MAE {format_duration(result.metrics['linear.mae_seconds'])}, "
        f"S-MAE {format_duration(result.metrics['linear.s_mae_seconds'])}, "
        f"POST-MAE {format_duration(result.metrics['linear.post_mae_seconds'])}"
    )
    print(f"  prediction drops when injection starts: {result.metrics['adapts_to_injection_start']}")
    times = result.series["time_seconds"]
    true_ttf = result.series["true_ttf_seconds"]
    predicted = result.series["predicted_ttf_seconds"]
    for fraction in (0.1, 0.35, 0.6, 0.85):
        index = int(len(times) * fraction)
        print(
            f"    t={times[index]:7.0f}s  true {format_duration(true_ttf[index]):>15s}"
            f"  predicted {format_duration(predicted[index]):>15s}"
        )


def main() -> None:
    print("Scenario 1: dynamic software aging (Experiment 4.2)")
    result42 = api.run("exp42", scale="small", seed=42)
    describe_adaptation(result42)

    print("\nScenario 2: aging hidden within a periodic pattern (Experiment 4.3)")
    result43 = api.run("exp43", scale="small", seed=42)
    print(f"  run crashed after {format_duration(result43.metrics['test_duration_seconds'])}")
    print("  with the expert heap-variable selection (Table 4):")
    print(f"    M5P       : MAE {format_duration(result43.metrics['m5p_selected.mae_seconds'])}")
    print(f"    Linear Reg: MAE {format_duration(result43.metrics['linear_selected.mae_seconds'])}")
    print("  with the full variable set (what motivated the selection):")
    print(f"    M5P       : MAE {format_duration(result43.metrics['m5p_full.mae_seconds'])}")
    print(f"  selection helps M5P: {result43.metrics['selection_helps_m5p']}")
    print(f"  selected M5P model size: {result43.metrics['selected_m5p_leaves']} leaves")


if __name__ == "__main__":
    main()
