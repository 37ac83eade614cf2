"""Multiserver-job and cloning benchmarks (figure-style studies).

Two studies over the cloud-native workload classes:

- **waste-vs-load** — an 8-server gang-scheduled cluster under rising
  load, FCFS head-of-line blocking with and without EASY backfill.
  Reports the time-integrated *waste* (idle server-seconds while jobs
  queue), *blocked* time fraction, utilization, and mean response.
  Backfill recovers most of the fragmentation loss without delaying the
  head job (the no-starvation invariant is pinned by
  ``tests/test_multiserver.py``).  Table:
  ``benchmarks/results/multiserver_waste.txt``.
- **tail-vs-clones** — 4 processor-sharing backends behind a
  synchronized clone-to-d balancer with cancel-on-first-complete, at a
  fixed logical arrival rate.  Reports mean/p95/p99 response and the
  cancelled-replica count as d grows: with synchronized exponential
  service, redundancy multiplies offered load without shortening any
  replica, so the tail inflates — the classic "cloning can hurt"
  regime whose d = 1 and d = n means have closed forms
  (:mod:`repro.theory.cloning`).  Table:
  ``benchmarks/results/cloning_tail.txt``.

Every run is fully seeded: rerunning reproduces the committed tables
bit-for-bit on the same platform.
"""

import numpy as np

from conftest import save_rows
from repro.datacenter.balancers import CloningBalancer
from repro.datacenter.cluster import MultiserverCluster
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.distributions import Choice, Exponential
from repro.engine.experiment import Experiment
from repro.theory.cloning import ps_cloning_response
from repro.workloads.workload import Workload

SEED = 0xB165
MAX_EVENTS = 2_000_000
N_SERVERS = 8
MU = 2.0
NEED = ([1, 2, 4], [0.5, 0.3, 0.2])
LOADS = (0.3, 0.5, 0.7, 0.85)

CLONE_BACKENDS = 4
CLONE_MU = 10.0
CLONE_LAM = 5.0


def run_msj_point(rho: float, backfill: bool) -> tuple:
    need = Choice(*NEED)
    lam = rho * N_SERVERS * MU / need.mean()
    workload = Workload(
        "msj", Exponential(rate=lam), Exponential(rate=MU)
    ).with_servers_needed(need)
    cluster = MultiserverCluster(N_SERVERS, backfill=backfill)
    experiment = Experiment(
        seed=SEED, warmup_samples=500, calibration_samples=3000
    )
    experiment.add_source(workload, target=cluster)
    experiment.track_response_time(cluster, mean_accuracy=0.05)
    result = experiment.run(max_events=MAX_EVENTS)
    return (
        rho,
        backfill,
        result["response_time"].mean,
        cluster.waste_fraction(),
        cluster.blocked_fraction(),
        cluster.utilization(),
        cluster.backfilled_jobs,
        cluster.completed_jobs,
        result.converged,
    )


def run_clone_point(clones: int) -> tuple:
    servers = [
        ProcessorSharingServer(name=f"ps{i}") for i in range(CLONE_BACKENDS)
    ]
    balancer = CloningBalancer(servers, clones=clones)
    workload = Workload(
        "clone", Exponential(rate=CLONE_LAM), Exponential(rate=CLONE_MU)
    )
    experiment = Experiment(
        seed=SEED, warmup_samples=500, calibration_samples=3000
    )
    experiment.add_source(workload, target=balancer)
    samples: list = []
    balancer.on_complete(
        lambda job, station: samples.append(job.finish_time - job.arrival_time)
    )
    experiment.track_response_time(balancer, mean_accuracy=0.05)
    result = experiment.run(max_events=MAX_EVENTS)
    values = np.asarray(samples)
    theory = ps_cloning_response(
        CLONE_LAM, CLONE_MU, CLONE_BACKENDS, clones
    )
    return (
        clones,
        float(values.mean()),
        float(np.quantile(values, 0.95)),
        float(np.quantile(values, 0.99)),
        theory if theory is not None else "-",
        balancer.completed_jobs,
        balancer.cancelled_replicas,
        result.converged,
    )


def waste_study():
    return [
        run_msj_point(rho, backfill)
        for backfill in (False, True)
        for rho in LOADS
    ]


def clone_study():
    return [run_clone_point(clones) for clones in (1, 2, 3, 4)]


def test_multiserver_waste_vs_load(benchmark):
    rows = benchmark.pedantic(waste_study, rounds=1, iterations=1)
    save_rows(
        "multiserver_waste",
        ["rho", "backfill", "mean_response", "waste", "blocked",
         "utilization", "backfilled", "completed", "converged"],
        rows,
    )


def test_cloning_tail_vs_clones(benchmark):
    rows = benchmark.pedantic(clone_study, rounds=1, iterations=1)
    save_rows(
        "cloning_tail",
        ["clones", "mean_response", "p95", "p99", "theory_mean",
         "completed", "cancelled", "converged"],
        rows,
    )
