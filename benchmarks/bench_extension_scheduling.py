"""Extension study — scheduling disciplines under heavy-tailed service.

Not a figure from the paper: this is the kind of follow-on experiment the
framework exists to enable ("BigHouse is best suited for studies
investigating load balancing, power management, resource allocation...").
It compares four single-server disciplines on the same heavy-tailed
M/G/1 load (mean 50 ms, Cv = 3, rho = 0.7):

- FCFS (the paper's default),
- non-preemptive SJF,
- preemptive SRPT (mean-optimal),
- processor sharing (the time-sharing OS model).

Expected structure: SRPT < SJF < FCFS on mean response; PS beats FCFS on
the mean under heavy tails (insensitivity) but cannot beat SRPT.
"""

from conftest import save_rows
from repro import Experiment, Workload, theory
from repro.datacenter import ProcessorSharingServer, SRPTServer, Server
from repro.datacenter.disciplines import SJFQueue
from repro.distributions import Exponential, HyperExponential
from repro.validation import ValidationCase

SERVICE = HyperExponential.from_mean_cv(0.05, 3.0)
ARRIVAL_RATE = 14.0  # rho = 0.7

#: The closed form of each discipline's mean response: Pollaczek–
#: Khinchine, Phipps, Schrage–Miller, and M/G/1-PS, which is insensitive
#: to the service shape and so has the M/M/1 mean.
THEORY = {
    "fcfs": theory.mg1_mean_response(ARRIVAL_RATE, SERVICE),
    "sjf": theory.mg1_sjf_response(ARRIVAL_RATE, SERVICE),
    "srpt": theory.mg1_srpt_response(ARRIVAL_RATE, SERVICE),
    "ps": theory.mm1_mean_response(ARRIVAL_RATE, 1.0 / SERVICE.mean()),
}

#: Each simulated mean's budget: this x its closed form, plus its CI
#: half-width.
TOLERANCE = 0.15


def run_discipline(label, station, seed=401):
    experiment = Experiment(seed=seed, warmup_samples=500,
                            calibration_samples=3000)
    workload = Workload("mg1", Exponential(rate=ARRIVAL_RATE), SERVICE)
    experiment.add_source(workload, target=station)
    experiment.track_response_time(
        station, mean_accuracy=0.03, quantiles={0.95: 0.1}
    )
    result = experiment.run(max_events=30_000_000)
    estimate = result["response_time"]
    case = ValidationCase(
        f"{label} mean response", estimate.mean, THEORY[label],
        tolerance=TOLERANCE, converged=result.converged, ci=estimate.mean_ci,
    )
    row = (label, estimate.mean, estimate.quantiles[0.95], result.converged)
    return row, case


def sweep():
    return [
        run_discipline("fcfs", Server(cores=1)),
        run_discipline("sjf", Server(cores=1, discipline=SJFQueue())),
        run_discipline("srpt", SRPTServer()),
        run_discipline("ps", ProcessorSharingServer()),
    ]


def test_extension_scheduling_comparison(benchmark):
    rows, cases = zip(*benchmark.pedantic(sweep, rounds=1, iterations=1))
    save_rows(
        "extension_scheduling",
        ["discipline", "mean_response_s", "p95_response_s", "converged"],
        rows,
    )
    # The forms order srpt < sjf < fcfs and ps < fcfs; each simulated
    # mean is judged against its own.
    failures = [
        f"{case.name}: sim={case.simulated:.6g} theory={case.theoretical:.6g}"
        for case in cases if not case.passed
    ]
    assert not failures, "\n".join(failures)
