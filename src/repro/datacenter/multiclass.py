"""Multi-class task populations and priority scheduling.

Data center services mix traffic classes — latency-sensitive queries
sharing machines with batch/background work is the canonical example.
This module adds:

- :class:`JobClass` — a named class with a priority level and its own
  service distribution;
- :class:`PriorityQueue` — a non-preemptive head-of-line priority
  discipline (lower ``priority`` number = served first), pluggable into
  the standard :class:`~repro.datacenter.server.Server`;
- :class:`MultiClassSource` — one arrival process whose tasks are a
  probabilistic mixture over classes (each job is stamped with its
  class);
- per-class metric helpers, so an experiment can track
  ``response_time[interactive]`` separately from ``response_time[batch]``.

The non-preemptive M/G/1 priority queue has a closed form (Cobham's
formula), provided in :func:`cobham_waiting_times` and used by the test
suite to validate the whole stack.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.datacenter.disciplines import QueueingDiscipline
from repro.datacenter.job import Job
from repro.datacenter.source import _JOB_COUNTER
from repro.distributions import Distribution
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.simulation import Simulation


@dataclass(frozen=True)
class JobClass:
    """One traffic class.

    ``priority`` orders service (0 = most urgent).  ``weight`` is the
    class's share of the arrival mixture.
    """

    name: str
    priority: int
    service: Distribution
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.priority < 0:
            raise ValueError(f"{self.name}: priority must be >= 0")
        if self.weight <= 0:
            raise ValueError(f"{self.name}: weight must be > 0")


def job_class_of(job: Job) -> Optional[JobClass]:
    """The class a job was stamped with (None for unclassified jobs)."""
    return job.job_class


def _stamp(job: Job, job_class: JobClass) -> None:
    job.job_class = job_class


def _unstamp(job: Job) -> None:
    job.job_class = None


#: Priority assigned to jobs without a class stamp: below any real class.
UNCLASSIFIED_PRIORITY = 1 << 30


class PriorityQueue(QueueingDiscipline):
    """Non-preemptive head-of-line priorities, FCFS within a class.

    Jobs without a class stamp sort at :data:`UNCLASSIFIED_PRIORITY`,
    below every classified job — background traffic never delays
    classified traffic.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Job]] = []
        self._tie = itertools.count()

    def push(self, job: Job) -> None:
        job_class = job_class_of(job)
        priority = (
            UNCLASSIFIED_PRIORITY if job_class is None else job_class.priority
        )
        heapq.heappush(self._heap, (priority, next(self._tie), job))

    def pop(self) -> Optional[Job]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


class MultiClassSource:
    """One arrival process over a mixture of job classes.

    Inter-arrival gaps come from ``interarrival``; each arriving task is
    assigned a class with probability proportional to class weight, and
    draws its service demand from that class's distribution.
    """

    def __init__(
        self,
        interarrival: Distribution,
        classes: Sequence[JobClass],
        target,
        max_jobs: Optional[int] = None,
        name: str = "multiclass-source",
    ):
        if not classes:
            raise ValueError("need >= 1 job class")
        names = [job_class.name for job_class in classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate class names: {names}")
        self.interarrival = interarrival
        self.classes = list(classes)
        total = sum(job_class.weight for job_class in classes)
        self._probabilities = [
            job_class.weight / total for job_class in classes
        ]
        # Cumulative weights for O(log k) class selection off one uniform
        # (numpy's choice(p=...) costs microseconds per draw).
        self._cumulative = np.cumsum(self._probabilities)
        self.target = target
        self.max_jobs = max_jobs
        self.name = name
        self.generated = 0
        self.generated_by_class: Dict[str, int] = {n: 0 for n in names}
        self.sim: Optional[Simulation] = None
        self._rng = None
        self._next_gap: Optional[PrefetchSampler] = None

    def bind(self, sim: Simulation) -> None:
        """Attach and schedule the first arrival."""
        if self.sim is not None:
            raise RuntimeError(f"{self.name}: already bound")
        self.sim = sim
        self._rng = sim.spawn_rng()
        self._next_gap = sim.sampler(self.interarrival)
        self.target.bind(sim)
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.max_jobs is not None and self.generated >= self.max_jobs:
            return
        self.sim.schedule_in(self._next_gap(), self._emit)

    def _emit(self) -> None:
        # Class choice and service demand share self._rng: the two draws
        # interleave per job, so neither can be block-prefetched without
        # changing the stream.
        index = int(np.searchsorted(self._cumulative, self._rng.random()))
        job_class = self.classes[min(index, len(self.classes) - 1)]
        job = Job(
            next(_JOB_COUNTER),
            size=float(job_class.service.sample(self._rng)),
        )
        job.arrival_time = self.sim.now
        _stamp(job, job_class)
        self.generated += 1
        self.generated_by_class[job_class.name] += 1
        self.target.arrive(job)
        self._schedule_next()


def track_per_class_response(
    experiment,
    station,
    classes: Sequence[JobClass],
    mean_accuracy: float = 0.05,
    quantiles=None,
    prefix: str = "response_time",
    **overrides,
):
    """Declare one response-time metric per class on an experiment.

    Completions are routed to ``<prefix>[<class>]`` by the job's class
    stamp; unclassified completions are ignored.  Returns the metric
    names in class order.
    """
    names = []
    for job_class in classes:
        metric = f"{prefix}[{job_class.name}]"
        experiment.track(
            metric, mean_accuracy=mean_accuracy, quantiles=quantiles,
            **overrides,
        )
        names.append(metric)

    def route(job, _server) -> None:
        job_class = job_class_of(job)
        if job_class is None:
            return
        experiment.record(f"{prefix}[{job_class.name}]", job.response_time)
        _unstamp(job)

    station.on_complete(route)
    return names


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
        raise ValueError("need one service distribution per arrival rate")
    if not arrival_rates:
        raise ValueError("need >= 1 class")
    rhos = [
        lam * service.mean()
        for lam, service in zip(arrival_rates, services)
    ]
    if sum(rhos) >= 1.0:
        raise ValueError(f"unstable: total rho = {sum(rhos):.3f} >= 1")
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
