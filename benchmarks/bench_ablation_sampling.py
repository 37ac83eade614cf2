"""Ablation — why BigHouse's sampling machinery is the way it is.

Three design choices from Section 2.3, each ablated:

1. **Lag spacing vs naive sampling.**  Keeping every observation (lag 1)
   and applying the i.i.d. CI formula (Eq. 2) to autocorrelated queue
   outputs *underestimates* the variance of the mean — CIs become
   overconfident and coverage collapses well below the nominal 95%.
   Lag-spaced sampling restores coverage at the cost of simulating
   l times more events.

2. **Lag spacing vs batch means.**  The textbook alternative keeps all
   events and averages batches.  It also restores mean-CI coverage — but
   only the *mean* survives batching: quantiles of the underlying metric
   are unavailable, which is disqualifying for a tail-latency tool.

3. **Warm-up discarding.**  Skipping warm-up biases estimates toward the
   empty initial state (cold-start bias).
"""

import numpy as np
import pytest

from conftest import save_rows
from repro import Experiment, Server, Workload
from repro.core.batch_means import BatchMeansEstimator, calibrate_batch_size
from repro.core.convergence import mean_confidence_interval
from repro.core.runs_test import find_lag
from repro.distributions import Exponential
from repro.theory import mm1_mean_response

LAM, MU = 16.0, 20.0  # rho = 0.8: strongly autocorrelated responses
TRUTH = 1.0 / (MU - LAM)


def response_stream(seed, n, warmup=500):
    """Collect n post-warm-up response times from a busy M/M/1.

    Drives the event loop directly (no convergence termination): the
    ablation needs the raw, autocorrelated stream itself.
    """
    experiment = Experiment(seed=seed)
    server = Server(cores=1)
    experiment.add_source(
        Workload("mm1", Exponential(rate=LAM), Exponential(rate=MU)),
        target=server,
    )
    values = []
    server.on_complete(lambda job, srv: values.append(job.response_time))
    experiment.simulation.run(
        max_events=50 * (n + warmup) + 100_000,
        stop_when=lambda: len(values) >= warmup + n,
        stop_check_interval=64,
    )
    if len(values) < warmup + n:
        raise RuntimeError("stream too short; raise max_events")
    return values[warmup:warmup + n]


def coverage_all(methods, trials=50, n=20_000):
    """Per-method CI coverage over shared streams (one stream per seed)."""
    hits = {name: 0 for name in methods}
    for seed in range(trials):
        stream = response_stream(seed + 1000, n)
        for name, build_ci in methods.items():
            lo, hi = build_ci(stream)
            hits[name] += lo <= TRUTH <= hi
    return {name: count / trials for name, count in hits.items()}


def naive_ci(values):
    """Eq. 2 applied as if the raw stream were i.i.d. (the ablation)."""
    values = np.asarray(values)
    return mean_confidence_interval(
        float(np.mean(values)), float(np.std(values)), len(values)
    )


def lag_spaced_ci(values):
    """BigHouse's approach: runs-up lag, then Eq. 2 on the spaced sample."""
    lag = find_lag(values[:2000])
    spaced = np.asarray(values[::lag])
    return mean_confidence_interval(
        float(np.mean(spaced)), float(np.std(spaced)), len(spaced)
    )


def batch_means_ci(values):
    """The batch-means alternative."""
    size = calibrate_batch_size(values[:2000], max_batch_size=256)
    estimator = BatchMeansEstimator(batch_size=max(size, 8))
    for value in values:
        estimator.observe(value)
    half = estimator.confidence_halfwidth()
    return estimator.mean() - half, estimator.mean() + half


def test_ablation_ci_coverage(benchmark):
    def run():
        return coverage_all(
            {
                "naive_lag1": naive_ci,
                "lag_spaced": lag_spaced_ci,
                "batch_means": batch_means_ci,
            }
        )

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    save_rows(
        "ablation_ci_coverage",
        ["method", "coverage_at_nominal_95"],
        sorted(results.items()),
    )
    # Naive CIs are badly overconfident on autocorrelated output...
    assert results["naive_lag1"] < 0.6
    # ...while both decorrelation methods substantially restore coverage
    # (full nominal coverage needs longer streams than this benchmark
    # simulates — at rho = 0.8 the autocorrelation time is long, which is
    # exactly why calibrated spacing matters).
    assert results["lag_spaced"] > results["naive_lag1"] + 0.15
    assert results["batch_means"] > results["naive_lag1"] + 0.15


def test_ablation_warmup_bias(benchmark):
    """Estimates that include the cold start are biased low.

    The bias only matters when the measurement window is short relative
    to the warm-up transient (a long window dilutes it), so the ablation
    uses a deliberately small per-run sample — the regime in which
    skipping Nw would actually corrupt an estimate.
    """

    def mean_with_warmup(warmup, seeds=80, n=120):
        totals = []
        for seed in range(seeds):
            values = response_stream(seed + 2000, n, warmup=warmup)
            totals.append(float(np.mean(values)))
        return float(np.mean(totals))

    def run():
        return mean_with_warmup(0), mean_with_warmup(500)

    cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)
    save_rows(
        "ablation_warmup",
        ["variant", "mean_response_s", "truth_s"],
        [("no_warmup", cold, TRUTH), ("warmup_500", warm, TRUTH)],
    )
    # The cold-start estimate sits below the warmed one, which in turn
    # is closer to the steady-state truth.
    assert cold < warm
    assert abs(warm - TRUTH) < abs(cold - TRUTH)
