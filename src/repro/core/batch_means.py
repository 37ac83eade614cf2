"""Batch means: the classic alternative to lag-spaced sampling.

BigHouse handles output autocorrelation by *discarding* l-1 of every l
observations (runs-up calibrated).  The older textbook alternative keeps
every observation but averages consecutive batches of size ``b`` and
treats the batch means as (approximately) independent.  Both are valid;
they trade differently:

- lag spacing throws away information (simulated events inflate by l)
  but estimates the *full distribution* — quantiles come for free from
  the histogram of accepted raw observations;
- batch means keeps every event but only the *mean* survives batching —
  a batch-mean histogram estimates quantiles of the batch mean, not of
  the underlying metric, so tail-latency questions cannot be answered.

This module exists for the ablation benchmark that quantifies that
trade-off (see ``benchmarks/bench_ablation_sampling.py``); the main
framework always uses lag spacing, as the paper does.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.convergence import mean_half_width
from repro.core.runs_test import MIN_RUNS_SAMPLE, runs_up_passes


class BatchMeansEstimator:
    """Streaming batch-means estimator for one metric's mean.

    Observations accumulate into fixed-size batches; completed batch
    means feed a running mean/variance from which a CI follows under the
    independence of batch means.
    """

    def __init__(self, batch_size: int, confidence: float = 0.95):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = int(batch_size)
        self.confidence = confidence
        self._current_sum = 0.0
        self._current_count = 0
        self.batch_means: list[float] = []
        self.observations = 0

    def observe(self, value: float) -> None:
        """Feed one raw observation."""
        self.observations += 1
        self._current_sum += value
        self._current_count += 1
        if self._current_count >= self.batch_size:
            self.batch_means.append(self._current_sum / self._current_count)
            self._current_sum = 0.0
            self._current_count = 0

    @property
    def batches(self) -> int:
        """Completed batches so far."""
        return len(self.batch_means)

    def mean(self) -> float:
        """Grand mean over completed batches."""
        if not self.batch_means:
            raise ValueError("no completed batches yet")
        return sum(self.batch_means) / len(self.batch_means)

    def std_of_batch_means(self) -> float:
        """Sample standard deviation of the batch means."""
        n = len(self.batch_means)
        if n < 2:
            raise ValueError("need >= 2 batches for a variance")
        grand = self.mean()
        variance = sum((m - grand) ** 2 for m in self.batch_means) / (n - 1)
        return math.sqrt(variance)

    def confidence_halfwidth(self) -> float:
        """CI half-width on the grand mean (CLT over batch means)."""
        return mean_half_width(
            self.std_of_batch_means(), len(self.batch_means), self.confidence
        )

    def relative_accuracy(self) -> float:
        """Achieved E = half-width / |mean| (Eq. 1 analogue)."""
        grand = self.mean()
        if grand == 0:
            raise ValueError("relative accuracy undefined at zero mean")
        return self.confidence_halfwidth() / abs(grand)

    def batch_means_look_independent(
        self, significance: float = 0.05
    ) -> Optional[bool]:
        """Runs-up test over the batch means (None if too few batches)."""
        if len(self.batch_means) < MIN_RUNS_SAMPLE:
            return None
        return runs_up_passes(self.batch_means, significance)


def calibrate_batch_size(
    sample,
    initial: int = 1,
    max_batch_size: int = 4096,
    significance: float = 0.05,
) -> int:
    """Double the batch size until batch means pass the runs-up test.

    The batch-means analogue of :func:`repro.core.runs_test.find_lag`:
    given a calibration sample, find the smallest power-of-two batch size
    whose batch means look independent.  Falls back to the largest
    testable size when nothing passes.
    """
    if initial < 1:
        raise ValueError(f"initial must be >= 1, got {initial}")
    sample = list(sample)
    size = initial
    best = initial
    while size <= max_batch_size:
        n_batches = len(sample) // size
        if n_batches < MIN_RUNS_SAMPLE:
            break
        best = size
        means = [
            sum(sample[i * size:(i + 1) * size]) / size
            for i in range(n_batches)
        ]
        if runs_up_passes(means, significance):
            return size
        size *= 2
    return best
