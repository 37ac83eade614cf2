"""Processor-sharing (PS) server model.

Time-sharing operating systems approximate PS: all jobs in the station
progress simultaneously, each at ``speed / n`` when ``n`` jobs are
present.  PS cannot be expressed as a queueing *discipline* on the
standard server (there is no queue — everyone is in service), so it is a
separate station type with the same outward interface (``bind``,
``arrive``, ``on_complete``), implemented by re-scheduling the earliest
completion every time the multiprogramming level changes.

Each change (an arrival, a cancellation, a completion) costs one walk of
the pool, ``_settle``: debit every job its share of the service elapsed
since the last change, let the one job in or out, and note the smallest
``remaining`` on the way; the pending completion event is then cancelled
and a new one pushed for that job, both inline on the queue's heap (the
cancel is ``EventQueue.cancel``'s three steps without its checks: the
station owns that record, so it is always pending).  Every armed record
carries the same callback, bound once at ``bind``, which reads the due
job off the station.  A completion runs its listeners between the walk
and the re-arm, so a listener that re-enters the station sees a settled
pool and event sequence numbers do not depend on it.  The re-arm uses
the walk's soonest job unless a listener did re-enter
``arrive``/``cancel`` (every walk bumps a counter); only then does a
second walk arm it.  The arithmetic is fixed — ``remaining - elapsed *
speed / n`` clamped at 0.0, ``delay = remaining * n / speed``, first
admitted wins a tie — and ``tests/test_processor_sharing.py`` holds a
naive transcription that results must equal exactly, not
approximately.

PS is insensitive to the service distribution's shape: mean response at
load rho is E[S] / (1 - rho) regardless of Cv — a sharp contrast with
FCFS under heavy-tailed service, and a useful cross-check that the
simulator's service accounting is exact (a property test pins this).
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import Callable, Optional

from repro.datacenter.job import Job
from repro.datacenter.server import ServerError
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.events import CANCELLED, EV_STATE, PENDING, SimulationError
from repro.engine.simulation import Simulation


class ProcessorSharingServer:
    """Single-station egalitarian processor sharing."""

    def __init__(self, speed: float = 1.0, service_distribution=None,
                 name: str = "ps-server"):
        if speed <= 0:
            raise ServerError(f"speed must be > 0, got {speed}")
        self.speed = float(speed)
        self.service_distribution = service_distribution
        self.name = name
        self.sim: Optional[Simulation] = None
        self._next_size: Optional[PrefetchSampler] = None
        self._events = None
        self._compact_min = None
        self._heap = None
        self._seq = None
        self._jobs: dict[int, Job] = {}
        self._completion_event = None
        #: The job the pending completion event is for.
        self._due: Optional[Job] = None
        #: The callback of every completion record (bound once at bind).
        self._on_due = None
        #: Walks so far: a completion compares it across its listeners.
        self._changes = 0
        self._last_progress = 0.0
        self.completed_jobs = 0
        self._complete_listeners: list[Callable[[Job, "ProcessorSharingServer"], None]] = []

    # -- wiring ---------------------------------------------------------------

    def bind(self, sim: Simulation) -> None:
        """Attach to a simulation (idempotent)."""
        if self.sim is sim:
            return
        if self.sim is not None:
            raise ServerError(f"{self.name}: already bound")
        self.sim = sim
        self._last_progress = sim.now
        # Captured once: _settle cancels and pushes completion records
        # straight on the queue.  Safe because heap compaction is in-place.
        self._events = sim.events
        self._compact_min = sim.events.COMPACT_MIN
        self._heap = sim.events._heap
        self._seq = sim.events._counter
        self._on_due = self._complete
        if self.service_distribution is not None:
            self._next_size = sim.sampler(self.service_distribution)

    def on_complete(self, listener: Callable[[Job, "ProcessorSharingServer"], None]) -> None:
        """Call ``listener(job, server)`` on every completion."""
        self._complete_listeners.append(listener)

    # -- state ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Jobs currently sharing the processor."""
        return len(self._jobs)

    @property
    def per_job_rate(self) -> float:
        """Service rate each job receives right now."""
        n = len(self._jobs)
        return self.speed / n if n else self.speed

    # -- mechanics ---------------------------------------------------------------

    def _settle(self, admit: Optional[Job], withdraw: Optional[Job],
                completes: bool) -> None:
        """Bring the pool up to the clock across one membership change.

        One walk: every job present since the last settle (``withdraw``
        included, before it leaves) is debited its share of the elapsed
        service, clamped at zero; ``admit`` joins undebited; and the
        smallest ``remaining`` is tracked on the way, the first admitted
        winning a tie.  When the change is ``withdraw`` completing, its
        finish is recorded and the listeners run next.  Then the pending
        completion is cancelled and one for the soonest job is armed;
        but if a listener re-entered ``arrive``/``cancel`` (the walk
        counter moved), a second walk, with no time elapsed, arms it.
        """
        now = self.sim.now
        jobs = self._jobs
        elapsed = now - self._last_progress
        self._last_progress = now
        self._changes += 1
        sharers = len(jobs)
        if withdraw is not None:
            del jobs[withdraw.job_id]
        soonest = None
        least = inf
        if elapsed > 0 and sharers:
            per_job = elapsed * self.speed / sharers
            if withdraw is not None:
                left = withdraw.remaining - per_job
                withdraw.remaining = left if left > 0.0 else 0.0
            for job in jobs.values():
                left = job.remaining - per_job
                if not left > 0.0:
                    left = 0.0
                job.remaining = left
                if left < least:
                    least = left
                    soonest = job
        else:
            for job in jobs.values():
                left = job.remaining
                if left < least:
                    least = left
                    soonest = job
        if admit is not None:
            jobs[admit.job_id] = admit
            if admit.remaining < least:
                least = admit.remaining
                soonest = admit
        if completes:
            withdraw.remaining = 0.0
            withdraw.finish_time = now
            self.completed_jobs += 1
            changes = self._changes
            for listener in self._complete_listeners:
                listener(withdraw, self)
            if self._changes != changes:
                self._settle(None, None, False)
                return
        pending = self._completion_event
        if pending is not None:
            # EventQueue.cancel, inline: state, dead count, compaction
            # (tests/test_events.py holds the counts to the queue's own).
            pending[EV_STATE] = CANCELLED  # simlint: disable=event-mutation
            events = self._events
            events._dead += 1
            size = len(self._heap)
            if size >= self._compact_min and events._dead * 2 > size:
                events._compact()
            self._completion_event = None
        if soonest is None:
            return
        delay = least * len(jobs) / self.speed
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._due = soonest
        # The record Simulation.schedule_in would build, pushed directly
        # (layout [time, seq, callback, state]).
        event = [now + delay, next(self._seq), self._on_due, PENDING]
        heappush(self._heap, event)
        self._completion_event = event

    def arrive(self, job: Job) -> None:
        """Admit a job into the sharing pool."""
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
        job.start_time = self.sim.now  # PS serves immediately (slower)
        self._settle(job, None, False)

    def cancel(self, job: Job) -> bool:
        """Withdraw a sharing job before it completes (replica
        cancellation).  The remaining jobs immediately speed up; returns
        False when the job is unknown (already completed)."""
        if self.sim is None:
            raise ServerError(f"{self.name}: not bound")
        if job.job_id not in self._jobs:
            return False
        self._settle(None, job, False)
        return True

    def _complete(self) -> None:
        self._completion_event = None
        self._settle(None, self._due, True)
