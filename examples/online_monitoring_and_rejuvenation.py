"""On-line monitoring of a production-like server and proactive rejuvenation.

The paper's end goal (Section 6 and its companion technical report) is a
framework that watches a live application server, predicts the time until a
software-aging crash and triggers a clean recovery before it happens.  This
example reproduces that loop on the simulated testbed:

1. train the predictor on historical failure runs;
2. stream a new run's monitoring marks one by one through
   ``OnlineAgingMonitor`` — exactly what an agent on the server would do;
3. raise the rejuvenation alarm when the predicted time to failure falls
   below a safety threshold;
4. compare three operation policies (do nothing, restart every hour,
   restart when the predictor says so) on a fleet, through the unified
   ``repro.api`` entry point (``repro run cluster --scale small``).

Run it with::

    python examples/online_monitoring_and_rejuvenation.py
"""

from repro import api
from repro.core import AgingPredictor, OnlineAgingMonitor, format_duration
from repro.testbed import MemoryLeakInjector, TestbedConfig, TestbedSimulation

CONFIG = TestbedConfig().scaled_for_fast_runs(4.0)


def aging_run(seed: int, workload_ebs: int = 80, n: int = 30):
    simulation = TestbedSimulation(
        config=CONFIG,
        workload_ebs=workload_ebs,
        injectors=[MemoryLeakInjector(n=n, seed=seed)],
        seed=seed,
    )
    return simulation.run(max_seconds=12 * 3600)


def main() -> None:
    print("Training the predictor on two historical failure runs...")
    predictor = AgingPredictor(model="m5p").fit([aging_run(1), aging_run(2)])

    print("Streaming a live run through the on-line monitor...")
    live_trace = aging_run(11)
    monitor = OnlineAgingMonitor(predictor, alarm_threshold_seconds=600.0, alarm_consecutive=2)
    for sample in live_trace:
        prediction = monitor.observe(sample)
        if prediction.alarm:
            print(
                f"  ALARM at t={prediction.time_seconds:.0f}s: predicted crash in "
                f"{format_duration(prediction.predicted_ttf_seconds)} "
                f"(actual crash at t={live_trace.crash_time_seconds:.0f}s)"
            )
            break
    if monitor.alarm_time is None:
        print("  the monitor never raised its alarm on this run")
    else:
        margin = live_trace.crash_time_seconds - monitor.alarm_time
        print(f"  the alarm fired {format_duration(margin)} before the actual crash")

    print("\nComparing rejuvenation policies on a fleet, through the unified API")
    print("(equivalently: repro run cluster --scale small --out results/cluster.json)...")
    fleet = api.run("cluster", scale="small")
    for policy in ("no_rejuvenation", "time_based", "rolling_predictive"):
        print(
            f"  {policy:20s} availability {fleet.metrics[f'{policy}.availability']:.4f}, "
            f"full outage {fleet.metrics[f'{policy}.full_outage_seconds']:.0f}s"
        )
    print(f"  rolling predictive wins: {fleet.metrics['rolling_wins']}")


if __name__ == "__main__":
    main()
