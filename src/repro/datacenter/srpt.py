"""Preemptive shortest-remaining-processing-time (SRPT) station.

SRPT is the canonical mean-response-optimal single-server policy and a
staple baseline of the tail-latency scheduling literature (which the
DreamWeaver line of work engages with).  The standard
:class:`~repro.datacenter.server.Server` only preempts whole-server
(pause/resume); SRPT needs per-job preemption, so it is a separate
single-core station: whenever a job arrives whose size is smaller than
the running job's *remaining* work, the running job is preempted back
into the pool and the newcomer takes the core.

Invariants: work-conserving; within any sample path, SRPT's mean
response time is a lower bound over all policies (tested against FCFS).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.datacenter.job import Job
from repro.datacenter.server import ServerError
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.simulation import Simulation


class SRPTServer:
    """Single-core preemptive shortest-remaining-processing-time."""

    def __init__(self, speed: float = 1.0, service_distribution=None,
                 name: str = "srpt-server"):
        if speed <= 0:
            raise ServerError(f"speed must be > 0, got {speed}")
        self.speed = float(speed)
        self.service_distribution = service_distribution
        self.name = name
        self.sim: Optional[Simulation] = None
        self._service_rng = None
        self._next_size: Optional[PrefetchSampler] = None
        self._traced = False
        self._running: Optional[Job] = None
        self._pool: list[tuple[float, int, Job]] = []  # (remaining, tie, job)
        self._tie = itertools.count()
        self.completed_jobs = 0
        self.preemptions = 0
        self._complete_listeners: list[Callable[[Job, "SRPTServer"], None]] = []

    # -- wiring ---------------------------------------------------------------

    def bind(self, sim: Simulation) -> None:
        """Attach to a simulation (idempotent)."""
        if self.sim is sim:
            return
        if self.sim is not None:
            raise ServerError(f"{self.name}: already bound")
        self.sim = sim
        self._traced = sim.tracing
        if self.service_distribution is not None:
            self._service_rng = sim.spawn_rng()
            self._next_size = PrefetchSampler(
                self.service_distribution, self._service_rng, probe=sim.probe
            )

    def on_complete(self, listener: Callable[[Job, "SRPTServer"], None]) -> None:
        """Call ``listener(job, server)`` on every completion."""
        self._complete_listeners.append(listener)

    # -- state ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Jobs in the station (running + preempted/waiting)."""
        return len(self._pool) + (1 if self._running is not None else 0)

    # -- mechanics ---------------------------------------------------------------

    def _sync_running(self) -> None:
        """Debit progress from the running job and cancel its event."""
        job = self._running
        if job is None:
            return
        elapsed = self.sim.now - job._last_progress
        if elapsed > 0:
            job.remaining = max(0.0, job.remaining - elapsed * self.speed)
        job._last_progress = self.sim.now
        if job._completion_event is not None:
            self.sim.cancel(job._completion_event)
            job._completion_event = None

    def _dispatch(self) -> None:
        """Put the smallest-remaining job on the core."""
        if self._running is None and self._pool:
            _, _, job = heapq.heappop(self._pool)
            self._running = job
            if job.start_time is None:
                job.start_time = self.sim.now
            job._last_progress = self.sim.now
            label = (
                f"{self.name}:complete#{job.job_id}" if self._traced else ""
            )
            job._completion_event = self.sim.schedule_in(
                job.remaining / self.speed,
                lambda j=job: self._complete(j),
                label,
            )

    def arrive(self, job: Job) -> None:
        """Admit a job, preempting the running one if the newcomer is
        shorter than its remaining work."""
        if self.sim is None:
            raise ServerError(f"{self.name}: not bound")
        if job.arrival_time is None:
            job.arrival_time = self.sim.now
        if job.size is None:
            if self.service_distribution is None:
                raise ServerError(
                    f"{self.name}: sizeless job and no service distribution"
                )
            job.size = self._next_size()
        if job.remaining is None:
            job.remaining = job.size
        if self._running is not None:
            self._sync_running()
            if job.remaining < self._running.remaining:
                preempted = self._running
                self._running = None
                self.preemptions += 1
                heapq.heappush(
                    self._pool,
                    (preempted.remaining, next(self._tie), preempted),
                )
            else:
                # Running job keeps the core; re-arm its completion.
                running = self._running
                label = (
                    f"{self.name}:complete#{running.job_id}"
                    if self._traced else ""
                )
                running._completion_event = self.sim.schedule_in(
                    running.remaining / self.speed,
                    lambda j=running: self._complete(j),
                    label,
                )
        heapq.heappush(self._pool, (job.remaining, next(self._tie), job))
        self._dispatch()

    def _complete(self, job: Job) -> None:
        job._completion_event = None
        job.remaining = 0.0
        job.finish_time = self.sim.now
        self._running = None
        self.completed_jobs += 1
        for listener in self._complete_listeners:
            listener(job, self)
        self._dispatch()
