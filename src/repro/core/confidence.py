"""Confidence-interval mathematics (Eqs. 1–3 of the paper).

An estimate has accuracy ``epsilon`` (confidence-interval half-width, in
the metric's units) and confidence level ``1 - alpha``.  BigHouse
normalizes the half-width by the mean estimate::

    E = epsilon / x_bar                                        (Eq. 1)

so a user asks for e.g. "response time within ±5% at 95% confidence".

Required sample sizes come from the central limit theorem::

    Nm = (z_{1-alpha/2} * sigma / epsilon)^2                   (Eq. 2)
    Nq = z_{1-alpha/2}^2 * q * (1 - q) / epsilon_p^2           (Eq. 3)

where Eq. 3's ``epsilon_p`` is the half-width in *probability* units.  To
target a half-width of ``E * x_q`` in value units, we convert through the
density at the quantile (the delta method used by Chen & Kelton):
``epsilon_p = E * x_q * f(x_q)``, with ``f`` estimated from the metric's
histogram.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.special import ndtri


@lru_cache(maxsize=64)
def z_value(confidence: float) -> float:
    """Two-sided standard-normal critical value ``z_{1-alpha/2}``.

    ``confidence`` is the level ``1 - alpha``; 0.95 gives the familiar
    1.96.  Cached: convergence checks ask for the same handful of levels
    thousands of times per run.  ``ndtri`` is what scipy's ``norm.ppf``
    evaluates; importing its whole stats package for one constant would
    double ``import repro``'s time (+0.5 s) and resident memory (+45 MiB).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    return float(ndtri(1.0 - alpha / 2.0))


def mean_sample_size(std: float, epsilon: float, confidence: float = 0.95) -> float:
    """Eq. 2: observations needed for a mean CI of half-width ``epsilon``."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    z = z_value(confidence)
    return (z * std / epsilon) ** 2


def quantile_sample_size(
    q: float, epsilon_p: float, confidence: float = 0.95
) -> float:
    """Eq. 3: observations needed for a quantile CI of probability
    half-width ``epsilon_p``."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    if epsilon_p <= 0:
        raise ValueError(f"epsilon_p must be > 0, got {epsilon_p}")
    z = z_value(confidence)
    return z * z * q * (1.0 - q) / (epsilon_p * epsilon_p)


def mean_confidence_interval(
    mean: float, std: float, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """CLT confidence interval for a mean from n i.i.d. observations."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    half = z_value(confidence) * std / math.sqrt(n)
    return mean - half, mean + half
