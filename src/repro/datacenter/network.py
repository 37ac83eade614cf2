"""Probabilistic routing: open queueing networks (Jackson-style).

The paper frames BigHouse as exercising "a generalized queuing network";
multi-tier pipelines (``Server.forward_to``) cover linear chains, and
this module adds the general case: after completing at station *i*, a
task moves to station *j* with probability ``P[i][j]`` or leaves the
network with the residual probability.  Feedback loops (re-visits) are
allowed.

For exponential stations the open network has a product-form solution
(Jackson's theorem): each station *i* behaves like an independent M/M/k
with effective arrival rate from the traffic equations

    lambda_i = gamma_i + sum_j lambda_j P[j][i]

:func:`repro.theory.traffic_equations` solves them, giving the
closed-form per-station loads the acceptance grid's ``jackson`` rows
judge the simulated network against.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.datacenter.job import Job
from repro.engine.simulation import Simulation


class NetworkError(ValueError):
    """Raised for invalid routing configurations."""


class RoutingNetwork:
    """A set of stations glued together by a routing matrix.

    Parameters
    ----------
    stations:
        Station objects (servers, PS stations, ...) supporting
        ``bind``/``arrive``/``on_complete``.  Stations should draw their
        own service demands (``service_distribution`` set), because a
        task consumes fresh service at each visit.
    routing:
        ``routing[i][j]`` = probability a task finishing at station i
        proceeds to station j.  Row sums must be <= 1; the deficit is the
        exit probability.
    """

    def __init__(self, stations: Sequence, routing: Sequence[Sequence[float]],
                 name: str = "network"):
        if not stations:
            raise NetworkError("need >= 1 station")
        matrix = np.asarray(routing, dtype=float)
        n = len(stations)
        if matrix.shape != (n, n):
            raise NetworkError(
                f"routing must be {n}x{n}, got {matrix.shape}"
            )
        if np.any(matrix < 0):
            raise NetworkError("routing probabilities must be >= 0")
        row_sums = matrix.sum(axis=1)
        if np.any(row_sums > 1.0 + 1e-9):
            raise NetworkError(
                f"routing row sums must be <= 1, got {row_sums.tolist()}"
            )
        self.stations = list(stations)
        self.routing = matrix
        self.name = name
        self.sim: Optional[Simulation] = None
        self._rng = None
        self.exits = 0
        self._exit_listeners: list[Callable[[Job], None]] = []

    def bind(self, sim: Simulation) -> None:
        """Attach all stations and install the routing hooks."""
        if self.sim is not None:
            raise NetworkError(f"{self.name}: already bound")
        self.sim = sim
        self._rng = sim.spawn_rng()
        for index, station in enumerate(self.stations):
            station.bind(sim)
            station.on_complete(
                lambda job, _station, i=index: self._route(job, i)
            )

    def arrive(self, job: Job, station_index: int = 0) -> None:
        """Inject an external arrival at a station (default: station 0)."""
        if self.sim is None:
            raise NetworkError(f"{self.name}: not bound")
        if not 0 <= station_index < len(self.stations):
            raise NetworkError(f"no station {station_index}")
        self.stations[station_index].arrive(job)

    def on_exit(self, listener: Callable[[Job], None]) -> None:
        """Call ``listener(job)`` when a task leaves the network."""
        self._exit_listeners.append(listener)

    def _route(self, job: Job, from_index: int) -> None:
        probabilities = self.routing[from_index]
        draw = self._rng.random()
        cumulative = 0.0
        for to_index, probability in enumerate(probabilities):
            cumulative += probability
            if draw < cumulative:
                # Fresh visit: the next station draws a new demand.
                job.size = None
                job.remaining = None
                job.finish_time = None
                job.start_time = None
                job.stages_completed += 1
                self.stations[to_index].arrive(job)
                return
        # Exit the network.
        self.exits += 1
        for listener in self._exit_listeners:
            listener(job)

