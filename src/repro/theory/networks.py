"""Closed forms for networks of queues: open Jackson and closed loops.

- **Jackson's theorem** — in an open network of exponential stations
  with probabilistic routing ``P``, station *i* behaves like an
  independent M/M/k at the effective rate that solves the traffic
  equations ``lambda_i = gamma_i + sum_j lambda_j P[j][i]``
  (:func:`traffic_equations`;
  :class:`repro.datacenter.network.RoutingNetwork` is the simulated
  side).
- **Mean value analysis** — the exact throughput of a closed network of
  single-server exponential stations and a think time
  (:func:`mva_throughput`), which the interactive response-time law
  ``R = N / X - Z`` (:func:`interactive_response_time`) turns into the
  clients' mean response
  (:class:`repro.datacenter.closedloop.ClosedLoopClients`).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.theory.queues import TheoryError


def traffic_equations(
    external_rates: Sequence[float],
    routing: Sequence[Sequence[float]],
) -> List[float]:
    """Solve lambda = gamma + P^T lambda for the effective station rates.

    Raises :class:`TheoryError` when the network does not drain (the
    spectral condition fails and the linear system is singular).
    """
    gamma = np.asarray(external_rates, dtype=float)
    matrix = np.asarray(routing, dtype=float)
    n = gamma.size
    if matrix.shape != (n, n):
        raise TheoryError(f"routing must be {n}x{n}, got {matrix.shape}")
    if np.any(gamma < 0):
        raise TheoryError("external rates must be >= 0")
    system = np.eye(n) - matrix.T
    try:
        rates = np.linalg.solve(system, gamma)
    except np.linalg.LinAlgError as error:
        raise TheoryError(f"network does not drain: {error}") from None
    if np.any(rates < -1e-9):
        raise TheoryError(f"negative effective rates: {rates.tolist()}")
    return [float(rate) for rate in rates]


def interactive_response_time(
    n_clients: int, throughput: float, think_time_mean: float
) -> float:
    """The interactive response-time law: R = N / X - Z."""
    if throughput <= 0:
        raise TheoryError(f"throughput must be > 0, got {throughput}")
    if n_clients < 1:
        raise TheoryError(f"need >= 1 client, got {n_clients}")
    return n_clients / throughput - think_time_mean


def mva_throughput(
    n_clients: int, service_means: Sequence[float], think_time_mean: float
) -> float:
    """Exact MVA: the throughput of ``n_clients`` cycling through
    single-server exponential stations (one visit each, mean service
    ``service_means``) and a think time of mean ``think_time_mean``.

    Adds one client at a time: with ``n - 1`` clients the mean queue at
    station i is Q_i, so an arriving client resides ``S_i (1 + Q_i)``,
    and X(n) = n / (Z + sum_i residence_i).
    """
    if n_clients < 1:
        raise TheoryError(f"need >= 1 client, got {n_clients}")
    if not service_means or min(service_means) <= 0 or think_time_mean < 0:
        raise TheoryError(
            "need service means > 0 and a think time >= 0, got "
            f"{list(service_means)} and {think_time_mean}"
        )
    queues = [0.0] * len(service_means)
    throughput = 0.0
    for n in range(1, n_clients + 1):
        residence = [s * (1.0 + q) for s, q in zip(service_means, queues)]
        throughput = n / (think_time_mean + sum(residence))
        queues = [throughput * r for r in residence]
    return throughput
