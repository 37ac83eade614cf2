"""Closed-loop (interactive) clients.

The shipped workloads are open-loop: arrivals come from an external
population at a fixed rate, regardless of how the system is doing.  Many
data center services are better modeled *closed-loop*: a finite
population of N clients, each cycling request -> response -> think time.
Closed loops self-throttle (a slow server slows its own arrival stream),
which changes tail behaviour qualitatively — a classic modeling pitfall
the framework should let users explore.

:class:`ClosedLoopClients` implements the interactive closed network;
the classic machine-repairman / interactive-response-time law

    R = N / X - Z

(N clients, throughput X, think time Z) ties it to theory for tests.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.datacenter.job import Job
from repro.datacenter.source import _JOB_COUNTER
from repro.distributions import Distribution
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.simulation import Simulation


class ClosedLoopClients:
    """N think-time clients driving one station.

    Each client submits a request (service demand from ``service``),
    waits for its completion, thinks for a gap from ``think_time``, and
    repeats.  The target station must support ``on_complete``; requests
    from *other* sources completing there are ignored.
    """

    def __init__(
        self,
        n_clients: int,
        think_time: Distribution,
        service: Distribution,
        target,
        name: str = "clients",
    ):
        if n_clients < 1:
            raise ValueError(f"need >= 1 client, got {n_clients}")
        self.n_clients = int(n_clients)
        self.think_time = think_time
        self.service = service
        self.target = target
        self.name = name
        self.sim: Optional[Simulation] = None
        self._next_think: Optional[PrefetchSampler] = None
        self._next_size: Optional[PrefetchSampler] = None
        self._in_flight: set[int] = set()
        self.completed = 0
        self._complete_listeners: list[Callable[[Job], None]] = []

    def bind(self, sim: Simulation) -> None:
        """Attach: every client starts with an initial think period."""
        if self.sim is not None:
            raise RuntimeError(f"{self.name}: already bound")
        self.sim = sim
        self._next_think = sim.sampler(self.think_time)
        self._next_size = sim.sampler(self.service)
        self.target.bind(sim)
        self.target.on_complete(self._handle_complete)
        for _ in range(self.n_clients):
            self._schedule_submit()

    def on_cycle_complete(self, listener: Callable[[Job], None]) -> None:
        """Call ``listener(job)`` when one of *our* requests completes."""
        self._complete_listeners.append(listener)

    @property
    def thinking(self) -> int:
        """Clients currently in their think period."""
        return self.n_clients - len(self._in_flight)

    def throughput(self) -> float:
        """Completed requests per simulated second so far."""
        if self.sim is None or self.sim.now <= 0:
            return 0.0
        return self.completed / self.sim.now

    def _schedule_submit(self) -> None:
        self.sim.schedule_in(self._next_think(), self._submit)

    def _submit(self) -> None:
        job = Job(next(_JOB_COUNTER), size=self._next_size())
        job.arrival_time = self.sim.now
        self._in_flight.add(job.job_id)
        self.target.arrive(job)

    def _handle_complete(self, job: Job, _station) -> None:
        if job.job_id not in self._in_flight:
            return  # someone else's request
        self._in_flight.discard(job.job_id)
        self.completed += 1
        for listener in self._complete_listeners:
            listener(job)
        self._schedule_submit()


def interactive_response_time(
    n_clients: int, throughput: float, think_time_mean: float
) -> float:
    """The interactive response-time law: R = N / X - Z."""
    if throughput <= 0:
        raise ValueError(f"throughput must be > 0, got {throughput}")
    if n_clients < 1:
        raise ValueError(f"need >= 1 client, got {n_clients}")
    return n_clients / throughput - think_time_mean
