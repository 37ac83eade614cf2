"""The task abstraction.

"A task in the queuing model corresponds to the most natural unit of work
for the workload under study, such as a single request, transaction,
query" (Section 2).  A job carries its service demand (``size``, in
seconds of work at unit speed) and accumulates timestamps as it moves
through the network; response and waiting times fall out as differences.
"""

from __future__ import annotations

import itertools
from typing import Optional

#: Process-wide job-id counter shared by every job producer (sources,
#: trace replay, cloning balancers) so ids stay globally unique.
JOB_COUNTER = itertools.count(1)

_new_job = object.__new__


class Job:
    """One task flowing through the queuing network.

    Attributes
    ----------
    size:
        Total service demand in seconds at speed 1.0.  ``None`` means the
        serving server draws it from its own service distribution on
        arrival (multi-tier pipelines re-draw per stage).
    remaining:
        Work left, maintained by the server as speeds change.
    arrival_time / start_time / finish_time:
        Network arrival, first instant of service, and completion.
    """

    # NOTE: Source._emit and _replica below initialize instances via
    # __new__ + direct slot stores for speed; keep both field lists in
    # sync with these slots (tests/test_jobs.py checks them).
    __slots__ = (
        "job_id",
        "size",
        "remaining",
        "arrival_time",
        "start_time",
        "finish_time",
        "delay_used",
        "_completion_event",
        "_last_progress",
        "stages_completed",
        "job_class",
        "servers_needed",
        "clone_of",
    )

    def _replica(self, size: Optional[float]) -> "Job":
        """A replica of this logical job, as redundancy balancers mint them.

        Built without ``__init__`` (no frame, no validation: ``size`` is
        the logical job's own, or None for the backend to draw); arrival
        time, class and server need are the logical job's.
        """
        replica = _new_job(Job)
        replica.job_id = next(JOB_COUNTER)
        replica.size = size
        replica.remaining = size
        replica.arrival_time = self.arrival_time
        replica.start_time = None
        replica.finish_time = None
        replica.delay_used = 0.0
        replica._completion_event = None
        replica._last_progress = None
        replica.stages_completed = 0
        replica.job_class = self.job_class
        replica.servers_needed = self.servers_needed
        replica.clone_of = self
        return replica

    def __init__(self, job_id: int, size: Optional[float] = None):
        if size is not None and size < 0:
            raise ValueError(f"job size must be >= 0, got {size}")
        self.job_id = job_id
        self.size = size
        self.remaining = size
        self.arrival_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        #: Cumulative time this job has spent delayed (not in service);
        #: maintained by delay-aware policies such as DreamWeaver.
        self.delay_used: float = 0.0
        self._completion_event = None
        self._last_progress: Optional[float] = None
        self.stages_completed: int = 0
        #: Traffic class (see repro.datacenter.multiclass); None = plain.
        self.job_class = None
        #: Servers this job holds simultaneously while in service (gang
        #: scheduling, see repro.datacenter.cluster.MultiserverCluster).
        self.servers_needed: int = 1
        #: For redundant replicas: the logical job this one clones
        #: (repro.datacenter.balancers cloning policies); None = plain.
        self.clone_of = None

    @property
    def response_time(self) -> float:
        """End-to-end latency: finish - arrival."""
        if self.finish_time is None or self.arrival_time is None:
            raise ValueError(f"job {self.job_id} has not finished")
        return self.finish_time - self.arrival_time

    @property
    def waiting_time(self) -> float:
        """Queueing delay before first service: start - arrival."""
        if self.start_time is None or self.arrival_time is None:
            raise ValueError(f"job {self.job_id} has not started")
        return self.start_time - self.arrival_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(#{self.job_id}, size={self.size}, "
            f"arrived={self.arrival_time}, finished={self.finish_time})"
        )
