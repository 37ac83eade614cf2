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
histogram.  The intervals these sizes promise are built, and judged,
in :mod:`repro.core.convergence`.
"""

from __future__ import annotations

import math
from functools import lru_cache

#: Coefficients of Cephes ``ndtri`` (S. L. Moshier, Cephes Math Library
#: 2.1, ``cephes/ndtri.c``), highest power first; the denominators are
#: monic.  ``_P0/_Q0`` serve ``|p - 1/2| <= 1/2 - e^-2``, ``_P1/_Q1`` the
#: tail with ``sqrt(-2 ln p)`` in [2, 8) and ``_P2/_Q2`` the far tail in
#: [8, 64] (``p < e^-32 ~ 1.27e-14``).
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242E0


def _horner(x: float, coefficients: tuple, leading: float) -> float:
    """Cephes ``polevl`` (``leading=0.0``) / ``p1evl`` (``leading=1.0``)."""
    for coefficient in coefficients:
        leading = leading * x + coefficient
    return leading


def _ndtri(p: float) -> float:
    """Standard-normal quantile of ``p`` in the open interval (0, 1).

    A transcription of Cephes ``ndtri`` — the routine
    ``scipy.special.ndtri`` (and so ``scipy.stats.norm.ppf``) evaluates —
    with its operations in its order, so the result equals scipy's bit
    for bit (``tests/test_confidence.py`` holds it to that on a grid
    covering all three rational approximations).
    """
    lower = p <= 1.0 - _EXP_MINUS_2
    y = p if lower else 1.0 - p
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _P0, 0.0) / _horner(y2, _Q0, 1.0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    numerator, denominator = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    z = 1.0 / x
    x1 = z * _horner(z, numerator, 0.0) / _horner(z, denominator, 1.0)
    x = (x - math.log(x) / x) - x1
    return -x if lower else x


@lru_cache(maxsize=64)
def z_value(confidence: float) -> float:
    """Two-sided standard-normal critical value ``z_{1-alpha/2}``.

    ``confidence`` is the level ``1 - alpha``; 0.95 gives the familiar
    1.96.  Cached: convergence checks ask for the same handful of levels
    thousands of times per run.  Evaluated here (:func:`_ndtri`) rather
    than by scipy: importing ``scipy.special`` for this one scalar was
    half of ``import repro``'s time and a third of its resident memory
    (docs/architecture.md, Start-up).

    A level so close to 1 that ``1 - alpha/2`` rounds to 1.0 has no
    finite critical value in double precision and is refused — Eq. 2
    would otherwise ask for infinitely many samples.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = 1.0 - confidence
    upper = 1.0 - alpha / 2.0
    if upper == 1.0:
        raise ValueError(
            f"confidence {confidence!r} is too close to 1: its tail "
            "probability is not representable"
        )
    return _ndtri(upper)


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

