"""Cluster containers: racks and whole-datacenter groupings.

BigHouse "uses an object-oriented hierarchy to represent various parts of
the data center such as servers, racks, etc." (Section 2.1).  These
containers aggregate utilization/idleness across their members and are
what the power-capping controller iterates over each budgeting epoch.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence

from repro.datacenter.job import Job
from repro.datacenter.server import Server
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.simulation import Simulation


class ClusterError(RuntimeError):
    """Raised on invalid cluster operations (oversized gang, bad wiring)."""


class Rack:
    """A named group of servers (aggregation + addressing unit)."""

    def __init__(self, servers: Sequence[Server], name: str = "rack"):
        if not servers:
            raise ValueError("rack needs >= 1 server")
        self.servers: List[Server] = list(servers)
        self.name = name

    def __len__(self) -> int:
        return len(self.servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self.servers)

    def bind(self, sim: Simulation) -> None:
        """Bind every member server."""
        for server in self.servers:
            server.bind(sim)

    def total_cores(self) -> int:
        """Cores across the rack."""
        return sum(server.cores for server in self.servers)

    def utilization_now(self) -> float:
        """Instantaneous busy-core fraction across the rack."""
        busy = sum(server.busy_cores for server in self.servers)
        return busy / self.total_cores()


class Cluster:
    """A collection of racks; the top of the object hierarchy.

    Convenience constructor :meth:`homogeneous` builds the flat N-server
    clusters used in the scalability study (Section 4), grouping servers
    into racks of ``rack_size``.
    """

    def __init__(self, racks: Sequence[Rack], name: str = "cluster"):
        if not racks:
            raise ValueError("cluster needs >= 1 rack")
        self.racks: List[Rack] = list(racks)
        self.name = name

    @classmethod
    def homogeneous(
        cls,
        n_servers: int,
        cores: int = 4,
        rack_size: int = 40,
        name: str = "cluster",
        server_factory=None,
    ) -> "Cluster":
        """Build N identical servers grouped into racks.

        ``server_factory(index)`` may be supplied to customize servers
        (e.g. to attach power models); it must return a :class:`Server`.
        """
        if n_servers < 1:
            raise ValueError(f"need >= 1 server, got {n_servers}")
        if rack_size < 1:
            raise ValueError(f"rack_size must be >= 1, got {rack_size}")
        servers = []
        for index in range(n_servers):
            if server_factory is not None:
                servers.append(server_factory(index))
            else:
                servers.append(Server(cores=cores, name=f"{name}-s{index}"))
        racks = [
            Rack(servers[start:start + rack_size],
                 name=f"{name}-r{start // rack_size}")
            for start in range(0, n_servers, rack_size)
        ]
        return cls(racks, name=name)

    @property
    def servers(self) -> List[Server]:
        """All servers, rack by rack."""
        return [server for rack in self.racks for server in rack]

    def __len__(self) -> int:
        return sum(len(rack) for rack in self.racks)

    def __iter__(self) -> Iterator[Server]:
        return iter(self.servers)

    def bind(self, sim: Simulation) -> None:
        """Bind every server in every rack."""
        for rack in self.racks:
            rack.bind(sim)

    def total_cores(self) -> int:
        """Cores across the cluster."""
        return sum(rack.total_cores() for rack in self.racks)

    def utilization_now(self) -> float:
        """Instantaneous busy-core fraction across the cluster."""
        busy = sum(server.busy_cores for server in self.servers)
        return busy / self.total_cores()


class MultiserverCluster:
    """Gang scheduler: each job holds ``servers_needed`` servers at once.

    This is the multiserver-job model of Baccelli, Olliaro et al.
    (PAPERS.md): a pool of ``n_servers`` identical servers, FCFS order,
    and *head-of-line blocking* — the job at the head of the queue waits
    until its full gang of servers is simultaneously free, and nothing
    behind it may start while it waits (unless backfill is enabled).
    GPU-training gangs and MPI ranks are the motivating workloads.

    ``backfill=True`` enables conservative (EASY-style) backfill: while
    the head is blocked, a later job may start *only if* doing so cannot
    delay the head's reservation — it either finishes before the head's
    reserved start time, or it fits entirely into servers the head will
    not need then.  The head job is therefore never starved by design;
    :meth:`head_reservation` exposes the reservation so tests can pin
    that invariant.

    Waste accounting: whenever jobs are queued but servers sit idle
    (fragmentation under HoL blocking), those server-seconds are
    *wasted* — the central inefficiency of the multiserver-job model.
    :meth:`waste_fraction` / :meth:`blocked_fraction` report the
    time-integrated metrics the fig-style benchmarks sweep.

    The outward interface matches :class:`~repro.datacenter.server.Server`
    (``bind`` / ``arrive`` / ``on_complete``), so sources, experiments,
    and metric tracking compose unchanged.
    """

    def __init__(
        self,
        n_servers: int,
        speed: float = 1.0,
        backfill: bool = False,
        service_distribution=None,
        name: str = "msj-cluster",
    ):
        if n_servers < 1:
            raise ClusterError(f"n_servers must be >= 1, got {n_servers}")
        if speed <= 0:
            raise ClusterError(f"speed must be > 0, got {speed}")
        self.n_servers = int(n_servers)
        self.speed = float(speed)
        self.backfill = bool(backfill)
        self.service_distribution = service_distribution
        self.name = name

        self.sim: Optional[Simulation] = None
        self._next_size: Optional[PrefetchSampler] = None
        self.free_servers = self.n_servers
        self._queue: deque[Job] = deque()
        self._running: dict[int, Job] = {}
        self.completed_jobs = 0
        self.backfilled_jobs = 0
        self._complete_listeners: list[Callable[[Job, "MultiserverCluster"], None]] = []

        # Time-weighted integrals for the waste/blocking metrics.
        self._last_update = 0.0
        self._busy_integral = 0.0      # server-seconds in service
        self._waste_integral = 0.0     # idle server-seconds while jobs queued
        self._blocked_integral = 0.0   # seconds with a blocked head job

    # -- wiring -----------------------------------------------------------

    def bind(self, sim: Simulation) -> None:
        """Attach to a simulation (idempotent)."""
        if self.sim is sim:
            return
        if self.sim is not None:
            raise ClusterError(f"{self.name}: already bound")
        self.sim = sim
        self._last_update = sim.now
        if self.service_distribution is not None:
            self._next_size = sim.sampler(self.service_distribution)

    def on_complete(self, listener: Callable[[Job, "MultiserverCluster"], None]) -> None:
        """Call ``listener(job, cluster)`` whenever a gang job finishes."""
        self._complete_listeners.append(listener)

    # -- state ------------------------------------------------------------

    @property
    def busy_servers(self) -> int:
        """Servers currently held by running gangs."""
        return self.n_servers - self.free_servers

    @property
    def queue_length(self) -> int:
        """Gang jobs waiting (head blocked or behind a blocked head)."""
        return len(self._queue)

    @property
    def outstanding(self) -> int:
        """Jobs in the system: queued + running."""
        return len(self._queue) + len(self._running)

    def utilization_now(self) -> float:
        """Instantaneous busy-server fraction."""
        return self.busy_servers / self.n_servers

    # -- metrics -----------------------------------------------------------

    def _update_integrals(self) -> None:
        now = self.sim.now
        dt = now - self._last_update
        if dt > 0:
            busy = self.n_servers - self.free_servers
            self._busy_integral += dt * busy
            if self._queue:
                self._blocked_integral += dt
                if self.free_servers > 0:
                    self._waste_integral += dt * self.free_servers
        self._last_update = now

    def waste_fraction(self) -> float:
        """Fraction of total server capacity wasted so far: idle
        server-seconds while jobs were queued, over all server-seconds."""
        self._update_integrals()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._waste_integral / (elapsed * self.n_servers)

    def blocked_fraction(self) -> float:
        """Fraction of elapsed time with a blocked head-of-line job."""
        self._update_integrals()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._blocked_integral / elapsed

    def utilization(self) -> float:
        """Time-averaged busy-server fraction so far."""
        self._update_integrals()
        elapsed = self.sim.now
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.n_servers)

    # -- job flow -----------------------------------------------------------

    def _need(self, job: Job) -> int:
        need = getattr(job, "servers_needed", 1) or 1
        need = int(need)
        if need < 1:
            need = 1
        if need > self.n_servers:
            raise ClusterError(
                f"{self.name}: job #{job.job_id} needs {need} servers but "
                f"the cluster has only {self.n_servers}"
            )
        return need

    def arrive(self, job: Job) -> None:
        """Accept a gang job: start it or queue it in FCFS order."""
        if self.sim is None:
            raise ClusterError(f"{self.name}: not bound to a simulation")
        if job.arrival_time is None:
            job.arrival_time = self.sim.now
        if job.size is None:
            if self._next_size is None:
                raise ClusterError(
                    f"{self.name}: job #{job.job_id} has no size and the "
                    "cluster has no service distribution"
                )
            job.size = self._next_size()
        if job.remaining is None:
            job.remaining = job.size
        self._need(job)  # validate before accepting
        self._update_integrals()
        self._queue.append(job)
        self._dispatch()

    def _start(self, job: Job, need: int) -> None:
        now = self.sim.now
        if job.start_time is None:
            job.start_time = now
        self.free_servers -= need
        self._running[job.job_id] = job
        job._completion_event = self.sim.schedule_in(
            job.remaining / self.speed, partial(self._complete, job)
        )

    def _complete(self, job: Job) -> None:
        job._completion_event = None
        self._update_integrals()
        need = self._need(job)
        del self._running[job.job_id]
        self.free_servers += need
        job.remaining = 0.0
        job.finish_time = self.sim.now
        self.completed_jobs += 1
        for listener in self._complete_listeners:
            listener(job, self)
        self._dispatch()

    def _dispatch(self) -> None:
        queue = self._queue
        # FCFS with head-of-line blocking: start in order while gangs fit.
        while queue:
            head = queue[0]
            need = self._need(head)
            if need > self.free_servers:
                break
            queue.popleft()
            self._start(head, need)
        if self.backfill and queue and self.free_servers > 0:
            self._backfill()

    # -- backfill ------------------------------------------------------------

    def head_reservation(self) -> Optional[tuple]:
        """The blocked head job's reservation: ``(reserved_start,
        extra_servers)``.

        ``reserved_start`` is the earliest instant the head's gang fits
        given the *currently running* jobs' completion times;
        ``extra_servers`` is how many servers remain free at that
        instant beyond the head's need.  ``None`` when no head is
        blocked.  Backfill admits a candidate only if it cannot push
        this reservation back, which is the no-starvation invariant.
        """
        if not self._queue:
            return None
        head = self._queue[0]
        need = self._need(head)
        if need <= self.free_servers:
            return None
        free_at = self.free_servers
        reserved_start = self.sim.now
        releases = sorted(
            (job._completion_event[0], self._need(job))
            for job in self._running.values()
        )
        for finish_time, freed in releases:
            free_at += freed
            reserved_start = finish_time
            if free_at >= need:
                break
        return reserved_start, free_at - need

    def _backfill(self) -> None:
        """EASY backfill: admit later jobs that cannot delay the head."""
        restart = True
        while restart:
            restart = False
            reservation = self.head_reservation()
            if reservation is None:
                return
            reserved_start, extra = reservation
            now = self.sim.now
            for position, candidate in enumerate(self._queue):
                if position == 0:
                    continue
                need = self._need(candidate)
                if need > self.free_servers:
                    continue
                finish = now + candidate.remaining / self.speed
                if finish <= reserved_start or need <= extra:
                    del self._queue[position]
                    self._start(candidate, need)
                    self.backfilled_jobs += 1
                    # State changed: recompute the reservation and rescan.
                    restart = True
                    break

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MultiserverCluster({self.name!r}, n={self.n_servers}, "
            f"free={self.free_servers}, queued={len(self._queue)}, "
            f"backfill={self.backfill})"
        )
