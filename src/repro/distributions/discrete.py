"""Discrete distributions over finite value sets.

Multiserver jobs draw their *server need* — how many servers a job
holds simultaneously (GPU-training gangs, MPI ranks) — from a discrete
distribution over a handful of sizes, typically powers of two.
:class:`Choice` is that sampler: an explicit (values, weights) table
with exact analytic moments, usable anywhere a
:class:`~repro.distributions.base.Distribution` is (so the existing
prefetch, block-sampling, and fitting machinery applies unchanged).
"""

from __future__ import annotations

import numpy as np

from repro.distributions.base import Distribution, DistributionError


class Choice(Distribution):
    """Finite discrete distribution: ``P[X = values[i]] = weights[i]``.

    Values must be non-negative and strictly increasing is *not*
    required, but duplicates are rejected (merge their weights instead).
    Weights are normalized internally, so any positive relative weights
    work (``weights=None`` means uniform).
    """

    #: Both paths draw one uniform per value (``rng.random`` scalar vs
    #: array) and map it through the same inverse CDF, so generator
    #: consumption and values are bit-equal.
    prefetch_safe = True

    def __init__(self, values, weights=None):
        values = [float(v) for v in values]
        if not values:
            raise DistributionError("Choice needs at least one value")
        if any(v < 0 for v in values):
            raise DistributionError(f"Choice values must be >= 0: {values}")
        if len(set(values)) != len(values):
            raise DistributionError(
                f"Choice values must be unique (merge weights): {values}"
            )
        if weights is None:
            weights = [1.0] * len(values)
        weights = [float(w) for w in weights]
        if len(weights) != len(values):
            raise DistributionError(
                f"{len(values)} values but {len(weights)} weights"
            )
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise DistributionError(
                f"Choice weights must be >= 0 with a positive sum: {weights}"
            )
        total = sum(weights)
        self.values = tuple(values)
        self.weights = tuple(w / total for w in weights)
        self._values_arr = np.asarray(self.values, dtype=float)
        # Inverse CDF breakpoints; the last is clamped to exactly 1.0 so
        # a uniform draw of 0.999... can never fall off the table.
        cdf = np.cumsum(self.weights)
        cdf[-1] = 1.0
        self._cdf = cdf

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        return float(self._values_arr[np.searchsorted(self._cdf, u, side="right")])

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 0:
            raise DistributionError(f"cannot draw a negative count: {n}")
        us = rng.random(n)
        return self._values_arr[np.searchsorted(self._cdf, us, side="right")]

    def mean(self) -> float:
        return float(np.dot(self._values_arr, self.weights))

    def variance(self) -> float:
        mean = self.mean()
        second = float(np.dot(self._values_arr * self._values_arr, self.weights))
        return max(0.0, second - mean * mean)

    def max_value(self) -> float:
        """Largest value with positive probability (modellint reads this
        to check a job's server need against the cluster size)."""
        return max(
            v for v, w in zip(self.values, self.weights) if w > 0
        )
