"""Multi-class traffic: protecting interactive latency from batch work.

A single 4-core server carries a mix of latency-sensitive interactive
queries (30% of arrivals, short) and batch tasks (70%, long).  Compares
plain FCFS against head-of-line priorities on per-class tail latency,
and checks the priority case against Cobham's closed form for the
non-preemptive M/G/1 priority queue.

Run:  python examples/multiclass_priorities.py
"""

from repro import Experiment, Server
from repro.datacenter import (
    JobClass,
    MultiClassSource,
    PriorityQueue,
    track_per_class_response,
)
from repro.distributions import Exponential, HyperExponential
from repro.theory import cobham_waiting_times

ARRIVAL_RATE = 30.0
CLASSES = [
    JobClass("interactive", priority=0,
             service=Exponential.from_mean(0.010), weight=0.3),
    JobClass("batch", priority=1,
             service=HyperExponential.from_mean_cv(0.030, 2.0), weight=0.7),
]


def run(discipline_label):
    experiment = Experiment(seed=171, warmup_samples=500,
                            calibration_samples=3000)
    discipline = PriorityQueue() if discipline_label == "priority" else None
    server = Server(cores=1, discipline=discipline)
    source = MultiClassSource(
        Exponential(rate=ARRIVAL_RATE), CLASSES, server
    )
    source.bind(experiment.simulation)
    experiment.sources.append(source)
    track_per_class_response(
        experiment, server, CLASSES,
        mean_accuracy=0.05, quantiles={0.95: 0.1},
    )
    result = experiment.run(max_events=20_000_000)
    return {
        job_class.name: result[f"response_time[{job_class.name}]"]
        for job_class in CLASSES
    }, result.converged


def main() -> None:
    print("== Interactive vs batch on one server (rho ~ 0.72) ==")
    print(f"{'discipline':<12} {'class':<12} {'mean (ms)':>10} "
          f"{'p95 (ms)':>10}")
    for label in ("fcfs", "priority"):
        estimates, converged = run(label)
        for name, estimate in estimates.items():
            print(f"{label:<12} {name:<12} {estimate.mean * 1e3:>10.2f} "
                  f"{estimate.quantiles[0.95] * 1e3:>10.2f}")
        assert converged

    # Theory check for the priority case (waiting-time portion).
    rates = [ARRIVAL_RATE * 0.3, ARRIVAL_RATE * 0.7]
    waits = cobham_waiting_times(rates, [c.service for c in CLASSES])
    print("\nCobham closed-form mean waits: "
          f"interactive={waits[0] * 1e3:.2f} ms, batch={waits[1] * 1e3:.2f} ms")
    print("Priorities cut the interactive tail by isolating it from batch")
    print("service times — at a modest cost to batch latency.")


if __name__ == "__main__":
    main()
