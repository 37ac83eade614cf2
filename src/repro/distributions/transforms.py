"""Distribution wrappers: scaling, shifting, truncation, mixtures.

:class:`Scaled` is how BigHouse varies load ("Load can be varied by scaling
the inter-arrival distribution", Section 3.1) and how a system model
modulates service times under DVFS slowdown.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distributions.base import (
    Distribution,
    DistributionError,
    require_nonnegative,
    require_positive,
)


class Scaled(Distribution):
    """Multiply every draw of ``base`` by ``factor``.

    Scaling an inter-arrival distribution by ``1/k`` multiplies offered
    load by ``k``; scaling a service distribution by ``s >= 1`` models a
    uniformly slower machine (the S_CPU knob of Fig. 4).
    """

    def __init__(self, base: Distribution, factor: float):
        self.base = base
        self.factor = require_positive("factor", factor)

    @property
    def prefetch_safe(self) -> bool:
        return self.base.prefetch_safe

    def sample(self, rng: np.random.Generator) -> float:
        return self.factor * self.base.sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.factor * self.base.sample_many(rng, n)

    def mean(self) -> float:
        return self.factor * self.base.mean()

    def variance(self) -> float:
        return self.factor * self.factor * self.base.variance()


class Shifted(Distribution):
    """Add a constant ``offset`` to every draw (e.g. fixed network RTT)."""

    def __init__(self, base: Distribution, offset: float):
        self.base = base
        self.offset = require_nonnegative("offset", offset)

    @property
    def prefetch_safe(self) -> bool:
        return self.base.prefetch_safe

    def sample(self, rng: np.random.Generator) -> float:
        return self.offset + self.base.sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.offset + self.base.sample_many(rng, n)

    def mean(self) -> float:
        return self.offset + self.base.mean()

    def variance(self) -> float:
        return self.base.variance()


class Truncated(Distribution):
    """Clamp draws of ``base`` into [low, high] (winsorization).

    Used to bound pathological tails when synthesizing empirical models;
    analytic moments are not available, so :meth:`mean`/:meth:`variance`
    are Monte-Carlo estimates cached at construction.
    """

    _MOMENT_SAMPLE = 200_000

    def __init__(
        self,
        base: Distribution,
        low: float = 0.0,
        high: float = float("inf"),
    ):
        if high <= low:
            raise DistributionError(f"high ({high}) must exceed low ({low})")
        self.base = base
        self.low = require_nonnegative("low", low)
        self.high = float(high)
        # Fixed-seed one-off moment estimation at construction time —
        # deliberately independent of any simulation's streams.
        rng = np.random.default_rng(0x5EED)  # simlint: disable=global-rng
        draws = self._clip(base.sample_many(rng, self._MOMENT_SAMPLE))
        self._mean = float(np.mean(draws))
        self._variance = float(np.var(draws))

    @property
    def prefetch_safe(self) -> bool:
        return self.base.prefetch_safe

    def _clip(self, x):
        return np.clip(x, self.low, self.high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self._clip(self.base.sample(rng)))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._clip(self.base.sample_many(rng, n))

    def mean(self) -> float:
        return self._mean

    def variance(self) -> float:
        return self._variance


class Mixture(Distribution):
    """Probabilistic mixture of component distributions.

    Models multi-class task populations (e.g. cheap cache hits vs
    expensive misses) without building a multi-class queuing network.
    """

    #: The vectorized path draws a multinomial and shuffles — a different
    #: generator-consumption order than per-draw sampling, so prefetching
    #: must fall back to single draws (see PrefetchSampler).
    prefetch_safe = False

    def __init__(self, components: Sequence[Distribution], weights: Sequence[float]):
        if len(components) == 0:
            raise DistributionError("mixture needs >= 1 component")
        if len(components) != len(weights):
            raise DistributionError(
                f"{len(components)} components vs {len(weights)} weights"
            )
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0):
            raise DistributionError("mixture weights must be non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise DistributionError("mixture weights must not all be zero")
        self.components = list(components)
        self.weights = weights / total

    def sample(self, rng: np.random.Generator) -> float:
        index = rng.choice(len(self.components), p=self.weights)
        return self.components[index].sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        counts = rng.multinomial(n, self.weights)
        draws = np.concatenate(
            [
                component.sample_many(rng, count)
                for component, count in zip(self.components, counts)
                if count > 0
            ]
        )
        rng.shuffle(draws)
        return draws

    def mean(self) -> float:
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )

    def variance(self) -> float:
        mean = self.mean()
        second = sum(
            w * (c.variance() + c.mean() ** 2)
            for w, c in zip(self.weights, self.components)
        )
        return float(second - mean * mean)
