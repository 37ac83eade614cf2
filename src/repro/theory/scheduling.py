"""Mean response times of the M/G/1 queue under non-FCFS disciplines.

Each form is the exact steady-state mean for one single-server
discipline, and each is a ground truth of the acceptance grid
(:mod:`repro.validation.acceptance`):

- **Cobham** — non-preemptive head-of-line priorities over job classes
  (:class:`repro.datacenter.multiclass.PriorityQueue`);
- **Phipps** — non-preemptive shortest-job-first
  (:class:`repro.datacenter.disciplines.SJFQueue`);
- **Schrage–Miller** — preemptive shortest-remaining-processing-time
  (:class:`repro.datacenter.srpt.SRPTServer`).

Non-preemptive LIFO needs no form of its own: the order of service
does not depend on job sizes, so its mean wait is Pollaczek–Khinchine's
(:func:`repro.theory.queues.mg1_mean_waiting`).

With ``F`` the service distribution, ``rho(x) = lam int_0^x t dF(t)``
is the load offered by jobs no larger than ``x``.  Phipps and
Schrage–Miller integrate over ``F`` by quadrature, so they take
exponential mixtures only (:class:`~repro.distributions.Exponential`,
:class:`~repro.distributions.HyperExponential`), whose partial moments
are closed forms.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.distributions.base import Distribution
from repro.theory.queues import TheoryError, _check_rates


def cobham_waiting_times(
    arrival_rates: Sequence[float],
    services: Sequence[Distribution],
) -> List[float]:
    """Cobham's formula: mean waits in a non-preemptive M/G/1 priority queue.

    Class i (index order = priority order, 0 highest):

        W_i = R / ((1 - sigma_i)(1 - sigma_{i+1}))

    where R = sum_j lambda_j E[S_j^2] / 2 (mean residual work) and
    sigma_i = sum_{j < i} rho_j, sigma_{i+1} = sum_{j <= i} rho_j.
    """
    if len(arrival_rates) != len(services):
        raise TheoryError("need one service distribution per arrival rate")
    if not arrival_rates:
        raise TheoryError("need >= 1 class")
    rhos = [
        lam * service.mean()
        for lam, service in zip(arrival_rates, services)
    ]
    if sum(rhos) >= 1.0:
        raise TheoryError(f"unstable: total rho = {sum(rhos):.3f} >= 1")
    residual = sum(
        lam * (service.variance() + service.mean() ** 2) / 2.0
        for lam, service in zip(arrival_rates, services)
    )
    waits = []
    cumulative = 0.0
    for rho in rhos:
        before = cumulative
        cumulative += rho
        waits.append(residual / ((1.0 - before) * (1.0 - cumulative)))
    return waits


def _phases(service: Distribution) -> List[Tuple[float, float]]:
    """``service`` as (probability, rate) exponential phases."""
    from repro.distributions import Exponential, HyperExponential

    if isinstance(service, HyperExponential):
        return [(service.p1, service.rate1), (1.0 - service.p1, service.rate2)]
    if isinstance(service, Exponential):
        return [(1.0, service.rate)]
    raise TheoryError(
        f"need an exponential mixture, got {type(service).__name__}"
    )


def _partial(phases, x: float) -> Tuple[float, float, float, float]:
    """F(x), f(x), int_0^x t dF and int_0^x t^2 dF of an exponential
    mixture."""
    cdf = density = first = second = 0.0
    for p, rate in phases:
        tail = math.exp(-rate * x)
        rx = rate * x
        cdf += p * (1.0 - tail)
        density += p * rate * tail
        first += p * (1.0 - tail * (1.0 + rx)) / rate
        second += p * 2.0 * (1.0 - tail * (1.0 + rx + rx * rx / 2.0)) / (
            rate * rate
        )
    return cdf, density, first, second


def mg1_sjf_response(lam: float, service: Distribution) -> float:
    """Phipps: mean response of non-preemptive SJF in an M/G/1 queue.

        E[T] = E[S] + int W0 / (1 - rho(x))^2 dF(x),  W0 = lam E[S^2] / 2
    """
    from scipy import integrate

    phases = _phases(service)
    mean = service.mean()
    _check_rates(lam, 1.0 / mean)
    residual = lam * (service.variance() + mean * mean) / 2.0

    def wait(x: float) -> float:
        _, density, first, _ = _partial(phases, x)
        return density * residual / (1.0 - lam * first) ** 2

    return mean + integrate.quad(wait, 0.0, math.inf, limit=200)[0]


def mg1_srpt_response(lam: float, service: Distribution) -> float:
    """Schrage–Miller: mean response of SRPT in an M/G/1 queue.

    A job of size x waits ``lam (m2(x) + x^2 (1 - F(x))) / (2 (1 -
    rho(x))^2)`` with ``m2(x) = int_0^x t^2 dF`` and then resides
    ``int_0^x dt / (1 - rho(t))``; averaged over F, the residence term
    is ``int_0^inf (1 - F(t)) / (1 - rho(t)) dt``.
    """
    from scipy import integrate

    phases = _phases(service)
    _check_rates(lam, 1.0 / service.mean())

    def wait(x: float) -> float:
        cdf, density, first, second = _partial(phases, x)
        work = lam * (second + x * x * (1.0 - cdf)) / 2.0
        return density * work / (1.0 - lam * first) ** 2

    def residence(t: float) -> float:
        cdf, _, first, _ = _partial(phases, t)
        return (1.0 - cdf) / (1.0 - lam * first)

    return (
        integrate.quad(wait, 0.0, math.inf, limit=200)[0]
        + integrate.quad(residence, 0.0, math.inf, limit=200)[0]
    )
