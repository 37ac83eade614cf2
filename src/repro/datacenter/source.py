"""Task sources: synthetic-draw arrival generators and trace replay.

"The BigHouse simulation engine synthesizes a task trace from the workload
models" (Section 2.3): a :class:`Source` draws inter-arrival gaps and
service demands from a workload's distributions and injects jobs into a
target (server or load balancer).  :class:`TraceSource` replays an
explicit (arrival_time, size) trace instead, which the paper notes
eliminates some sampling difficulties at the cost of statistical rigor
when the simulated system diverges from the traced one.
"""

from __future__ import annotations

from heapq import heappush
from typing import Iterable, Optional, Sequence, Tuple

from repro.datacenter.job import JOB_COUNTER, Job
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.events import PENDING
from repro.engine.simulation import Simulation

#: Shared across all job producers so ids are globally unique.
_JOB_COUNTER = JOB_COUNTER

#: Bound once: Source._emit builds jobs via __new__ + direct slot stores,
#: which is ~2x faster than calling Job.__init__ (no frame, no validation
#: — the distributions guarantee non-negative sizes).
_NEW_JOB = Job.__new__


class Source:
    """Open-loop arrival process driven by a workload model.

    Parameters
    ----------
    workload:
        Object with ``interarrival`` and ``service`` distributions
        (:class:`repro.workloads.Workload`).
    target:
        Component with ``arrive(job)`` and ``bind(sim)``.
    draw_sizes:
        When True (default) the source stamps each job's service demand;
        when False jobs are injected with ``size=None`` and the serving
        server draws from its own service distribution (multi-tier use).
    max_jobs:
        Optional cap on generated jobs (for bounded runs/tests).

    Gaps, sizes and server needs are each served by a
    :meth:`Simulation.sampler`, so the simulation's prefetch mode and
    determinism probe apply to them.
    """

    def __init__(self, workload, target, draw_sizes: bool = True,
                 max_jobs: Optional[int] = None, name: str = "source"):
        self.workload = workload
        self.target = target
        self.draw_sizes = draw_sizes
        self.max_jobs = max_jobs
        self.name = name
        self.generated = 0
        self.sim: Optional[Simulation] = None
        self._next_gap: Optional[PrefetchSampler] = None
        self._next_size: Optional[PrefetchSampler] = None
        self._next_need: Optional[PrefetchSampler] = None
        self._heap = None
        self._seq = None

    def bind(self, sim: Simulation) -> None:
        """Attach to a simulation and schedule the first arrival."""
        if self.sim is not None:
            raise RuntimeError(f"{self.name}: already bound")
        self.sim = sim
        self._next_gap = sim.sampler(self.workload.interarrival)
        self._next_size = sim.sampler(self.workload.service)
        # Multiserver-job workloads carry a server-need distribution;
        # the extra stream is spawned only when present so the RNG
        # lineage of every pre-existing model is unchanged.
        need_dist = getattr(self.workload, "servers_needed", None)
        if need_dist is not None:
            self._next_need = sim.sampler(need_dist)
        # Captured once: a direct heap push in _emit skips the
        # schedule_in frame.  Safe because heap compaction is in-place.
        self._heap = sim.events._heap
        self._seq = sim.events._counter
        self.target.bind(sim)
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.max_jobs is not None and self.generated >= self.max_jobs:
            return
        self.sim.schedule_in(self._next_gap(), self._emit)

    def _emit(self) -> None:
        # This method runs once per generated task, so everything is
        # inlined: _schedule_next's cap check, the sampler fast path
        # (``v is None`` test, not truthiness — 0.0 is a valid draw),
        # and the event-record push itself.
        sim = self.sim
        if self.draw_sizes:
            sampler = self._next_size
            size = next(sampler.it, None)
            if size is None:
                size = sampler.refill()
        else:
            size = None
        # Inline job construction (keep in sync with Job.__slots__).
        job = _NEW_JOB(Job)
        job.job_id = next(_JOB_COUNTER)
        job.size = size
        job.remaining = size
        now = sim.now
        job.arrival_time = now
        job.start_time = None
        job.finish_time = None
        job.delay_used = 0.0
        job._completion_event = None
        job._last_progress = None
        job.stages_completed = 0
        job.job_class = None
        job.clone_of = None
        need_sampler = self._next_need
        if need_sampler is None:
            job.servers_needed = 1
        else:
            need = next(need_sampler.it, None)
            if need is None:
                need = need_sampler.refill()
            job.servers_needed = int(need)
        self.generated += 1
        self.target.arrive(job)
        if self.max_jobs is None or self.generated < self.max_jobs:
            sampler = self._next_gap
            gap = next(sampler.it, None)
            if gap is None:
                gap = sampler.refill()
            heappush(
                self._heap, [now + gap, next(self._seq), self._emit, PENDING]
            )


class TraceSource:
    """Replays an explicit trace of (arrival_time, size) pairs."""

    def __init__(self, trace: Iterable[Tuple[float, float]], target,
                 name: str = "trace-source"):
        self.trace: Sequence[Tuple[float, float]] = list(trace)
        for arrival, size in self.trace:
            if arrival < 0 or size < 0:
                raise ValueError(
                    f"trace entries must be non-negative, got ({arrival}, {size})"
                )
        if any(
            self.trace[i][0] > self.trace[i + 1][0]
            for i in range(len(self.trace) - 1)
        ):
            raise ValueError("trace arrival times must be non-decreasing")
        self.target = target
        self.name = name
        self.generated = 0
        self.sim: Optional[Simulation] = None

    def bind(self, sim: Simulation) -> None:
        """Attach and schedule every trace arrival."""
        if self.sim is not None:
            raise RuntimeError(f"{self.name}: already bound")
        self.sim = sim
        self.target.bind(sim)
        for arrival, size in self.trace:
            sim.schedule_at(arrival, lambda s=size: self._emit(s))

    def _emit(self, size: float) -> None:
        job = Job(next(_JOB_COUNTER), size=size)
        job.arrival_time = self.sim.now
        self.generated += 1
        self.target.arrive(job)
