"""Ablation — histogram resolution vs quantile fidelity.

The Chen & Kelton streaming histogram trades memory for quantile
accuracy: the bin scheme is frozen at calibration, and every quantile
estimate afterwards is interpolated within a bin.  This ablation
quantifies the design point (1000 bins by default): for a right-skewed
latency-like distribution, how much tail-quantile error does each
resolution cost against the exact (sorted-sample) quantile, and how much
memory does it spend?

Also measures the *tail-padding* choice: schemes are padded 50% past the
calibration maximum so measurement-phase tail growth lands in real bins
rather than the overflow region.
"""

import numpy as np
import pytest

from conftest import save_rows
from repro.core.histogram import BinScheme, Histogram

BIN_COUNTS = (10, 100, 1000, 10_000)
QUANTILES = (0.5, 0.9, 0.95, 0.99)


def build(sample, calibration, bins, tail_padding=0.5):
    scheme = BinScheme.from_sample(calibration, bins=bins,
                                   tail_padding=tail_padding)
    histogram = Histogram(scheme)
    histogram.insert_block(sample)
    return histogram


def run_ablation(seed=13, n=200_000, calibration_n=5000):
    rng = np.random.default_rng(seed)
    sample = rng.lognormal(mean=0.0, sigma=1.0, size=n)
    calibration = sample[:calibration_n]
    exact = {q: float(np.quantile(sample, q)) for q in QUANTILES}
    rows = []
    for bins in BIN_COUNTS:
        histogram = build(sample, calibration, bins)
        worst = 0.0
        for q in QUANTILES:
            error = abs(histogram.quantile(q) - exact[q]) / exact[q]
            worst = max(worst, error)
        memory = histogram.counts.nbytes
        rows.append((bins, worst, memory))
    return rows, exact


def test_ablation_histogram_resolution(benchmark):
    rows, _ = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    save_rows(
        "ablation_histogram",
        ["bins", "worst_quantile_rel_error", "bytes"],
        rows,
    )
    errors = {bins: error for bins, error, _ in rows}
    # Resolution buys accuracy monotonically (allowing small noise).
    assert errors[10] > errors[1000]
    assert errors[100] >= errors[1000] * 0.5
    # The shipped default is plenty: < 2% worst-case error across the
    # tracked quantiles at ~8 KB of counters.
    assert errors[1000] < 0.02
    memory = {bins: b for bins, _, b in rows}
    assert memory[1000] <= 16_000


def test_ablation_tail_padding_matters():
    """Without padding, measurement-phase tail growth collapses into the
    overflow region and the p99 estimate degrades."""
    rng = np.random.default_rng(29)
    sample = rng.lognormal(mean=0.0, sigma=1.0, size=200_000)
    # Calibrate on an unluckily mild prefix (sorted low half) to mimic a
    # calibration window that missed the tail.
    calibration = np.sort(sample[:10_000])[:5000]
    exact_p99 = float(np.quantile(sample, 0.99))

    padded = build(sample, calibration, bins=1000, tail_padding=0.5)
    unpadded = build(sample, calibration, bins=1000, tail_padding=0.0)

    padded_error = abs(padded.quantile(0.99) - exact_p99) / exact_p99
    unpadded_error = abs(unpadded.quantile(0.99) - exact_p99) / exact_p99
    assert padded_error <= unpadded_error
