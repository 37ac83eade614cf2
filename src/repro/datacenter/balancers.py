"""Load balancers: fan arriving tasks out across a server pool.

The paper positions BigHouse for "studies investigating load balancing,
power management, resource allocation, hardware provisioning" (Section 2);
these are the standard dispatch policies such a study sweeps.

Beyond single-dispatch policies, this module provides *redundancy*
policies: :class:`CloningBalancer` (clone-to-d with cancel-on-first-
complete) and :class:`SpeculativeRetryBalancer` (a hedged second request
after a latency threshold).  Both treat the arriving job as a *logical*
request, mint replica jobs onto backends, and report exactly one
completion per logical job — metrics attached via ``on_complete`` never
see replicas, so response-time statistics cannot double-count.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.datacenter.job import Job
from repro.datacenter.server import Server
from repro.engine.simulation import Simulation, seeded_rng


class LoadBalancer(abc.ABC):
    """Dispatches each arriving job to one of a fixed set of backends."""

    def __init__(self, servers: Sequence[Server], name: str = "balancer"):
        if not servers:
            raise ValueError("load balancer needs >= 1 server")
        self.servers = list(servers)
        self.name = name
        self.sim: Optional[Simulation] = None
        self.dispatched = 0

    def bind(self, sim: Simulation) -> None:
        """Attach to a simulation; binds every backend transitively.

        Idempotent for every policy: a repeat call with the same
        simulation (two sources feeding one balancer) does nothing, so
        subclasses put their bind-time work in :meth:`_on_bind`.
        """
        if self.sim is sim:
            return
        if self.sim is not None:
            raise RuntimeError(f"{self.name}: already bound")
        self.sim = sim
        for server in self.servers:
            server.bind(sim)
        self._on_bind(sim)

    def _on_bind(self, sim: Simulation) -> None:
        """Subclass hook: runs once, after the backends are bound."""

    def arrive(self, job: Job) -> None:
        """Route one job."""
        if job.arrival_time is None:
            job.arrival_time = self.sim.now
        self.dispatched += 1
        self.choose(job).arrive(job)

    @abc.abstractmethod
    def choose(self, job: Job) -> Server:
        """Pick the backend for this job."""

    def on_complete(self, listener) -> None:
        """Attach a completion listener to every backend."""
        for server in self.servers:
            server.on_complete(listener)


class RandomBalancer(LoadBalancer):
    """Uniform random dispatch — memoryless, the M/G/k-ish baseline."""

    def _on_bind(self, sim: Simulation) -> None:
        self._rng = sim.spawn_rng()

    def choose(self, job: Job) -> Server:
        return self.servers[self._rng.integers(len(self.servers))]


class RoundRobinBalancer(LoadBalancer):
    """Cyclic dispatch — equalizes counts, not load."""

    def __init__(self, servers: Sequence[Server], name: str = "round-robin"):
        super().__init__(servers, name)
        self._next = 0

    def choose(self, job: Job) -> Server:
        server = self.servers[self._next]
        self._next = (self._next + 1) % len(self.servers)
        return server


class JoinShortestQueue(LoadBalancer):
    """Dispatch to the backend with the fewest outstanding jobs.

    Ties break by server order, keeping runs deterministic.
    """

    def choose(self, job: Job) -> Server:
        return min(self.servers, key=lambda server: server.outstanding)


class PowerOfTwoChoices(LoadBalancer):
    """Sample two random backends, join the shorter one.

    The Mitzenmacher "power of d choices" policy: near-JSQ tail behaviour
    at O(1) state-inspection cost — the practical compromise deployed in
    real front-ends, and a natural policy-comparison experiment for the
    framework.
    """

    def _on_bind(self, sim: Simulation) -> None:
        self._rng = sim.spawn_rng()

    def choose(self, job: Job) -> Server:
        n = len(self.servers)
        if n == 1:
            return self.servers[0]
        first, second = self._rng.choice(n, size=2, replace=False)
        a, b = self.servers[first], self.servers[second]
        return a if a.outstanding <= b.outstanding else b


class _ReplicatingBalancer(LoadBalancer):
    """Shared machinery for redundancy policies.

    Subclasses mint replica :class:`Job` objects (``clone_of`` pointing
    at the logical job) and register them; the first replica to finish
    wins — its siblings are withdrawn from their backends via
    ``cancel()`` and the logical job is finalized exactly once.
    ``on_complete`` listeners attach to the *logical* stream, not to the
    backends, so a response-time statistic records one sample per
    logical job no matter how many replicas ran.
    """

    def __init__(self, servers: Sequence[Server], name: str = "replicating"):
        super().__init__(servers, name)
        for server in self.servers:
            if not callable(getattr(server, "cancel", None)):
                raise ValueError(
                    f"{name}: backend {getattr(server, 'name', server)!r} "
                    "has no cancel(); redundancy policies need cancellable "
                    "backends"
                )
        #: logical job id -> list of (replica, backend) still in flight.
        self._pending: dict[int, List[Tuple[Job, Server]]] = {}
        self._logical_listeners: list = []
        self.completed_jobs = 0
        #: Replicas cancelled because a sibling won the race.
        self.cancelled_replicas = 0

    def _on_bind(self, sim: Simulation) -> None:
        super()._on_bind(sim)
        for server in self.servers:
            server.on_complete(self._replica_complete)

    def on_complete(self, listener) -> None:
        """Call ``listener(logical_job, self)`` once per logical job."""
        self._logical_listeners.append(listener)

    def choose(self, job: Job) -> Server:  # pragma: no cover - unused
        raise RuntimeError(
            f"{self.name}: redundancy policies dispatch in arrive(), "
            "not via choose()"
        )

    # -- replica plumbing ---------------------------------------------------

    def _replica_complete(self, replica: Job, server) -> None:
        logical = replica.clone_of
        if logical is None:
            return  # a plain job sharing this backend; not ours
        entry = self._pending.pop(logical.job_id, None)
        if entry is None:
            return  # sibling already won (defensive; siblings are cancelled)
        # The logical job starts when its first replica reached service
        # (waiting-time metrics read start - arrival).
        start = replica.start_time
        for other, backend in entry:
            if other is replica:
                continue
            if backend.cancel(other):
                self.cancelled_replicas += 1
            began = other.start_time
            if began is not None and (start is None or began < start):
                start = began
        self._finalize_extra(logical)
        logical.start_time = start
        logical.size = replica.size if logical.size is None else logical.size
        logical.remaining = 0.0
        logical.finish_time = self.sim.now
        self.completed_jobs += 1
        for listener in self._logical_listeners:
            listener(logical, self)

    def _finalize_extra(self, logical: Job) -> None:
        """Subclass hook run while finalizing (e.g. cancel hedge timers)."""


class CloningBalancer(_ReplicatingBalancer):
    """Clone-to-d with cancel-on-first-complete.

    Every logical job is replicated onto ``clones`` distinct backends
    at arrival; the first replica to complete defines the logical
    response, and the rest are cancelled wherever they sit (queued,
    running, or sharing a PS server).

    ``synchronized`` clones share the logical job's size draw — the
    regime with clean theory: clone-to-all over ``n`` PS backends is
    *distributionally identical* to a single PS server (every backend
    sees the same sample path), which :mod:`repro.theory.cloning` turns
    into closed forms and the test layer pins bit-for-bit.  With
    ``synchronized=False`` each replica draws its own size from the
    backend's service distribution (independent replicas, the regime
    where cloning actually helps tails).
    """

    def __init__(
        self,
        servers: Sequence[Server],
        clones: int = 2,
        synchronized: bool = True,
        name: str = "cloning",
    ):
        super().__init__(servers, name)
        if not 1 <= clones <= len(self.servers):
            raise ValueError(
                f"{name}: clones must be in 1..{len(self.servers)}, "
                f"got {clones}"
            )
        self.clones = int(clones)
        self.synchronized = bool(synchronized)
        self._rng = None

    def _on_bind(self, sim: Simulation) -> None:
        super()._on_bind(sim)
        # Clone-to-all needs no randomness; spawning the stream only
        # when d < n keeps the RNG lineage of the deterministic case
        # independent of the backend count.
        if self.clones < len(self.servers):
            self._rng = sim.spawn_rng()

    def _select(self) -> List[Server]:
        """``clones`` distinct backends at random (clone-to-d, d < n)."""
        picks = self._rng.choice(
            len(self.servers), size=self.clones, replace=False
        )
        return [self.servers[i] for i in picks]

    def arrive(self, job: Job) -> None:
        if job.arrival_time is None:
            job.arrival_time = self.sim.now
        if self.synchronized and job.size is None:
            raise ValueError(
                f"{self.name}: synchronized cloning needs the logical "
                f"job's size drawn upstream (job #{job.job_id} has none)"
            )
        self.dispatched += 1
        size = job.size if self.synchronized else None
        # Clone-to-all (no stream was spawned at bind) picks every backend.
        backends = self.servers if self._rng is None else self._select()
        entry = job._replicas(size, backends)
        self._pending[job.job_id] = entry
        for replica, backend in entry:
            backend.arrive(replica)


class SpeculativeRetryBalancer(_ReplicatingBalancer):
    """Hedged requests: retry on another backend after a latency threshold.

    Each logical job is first dispatched to one backend; if it has not
    completed within ``threshold`` seconds, a speculative duplicate is
    issued to a different backend (up to ``max_retries`` hedges, each
    ``threshold`` after the previous).  First completion wins and
    cancels the rest — the classic tail-cutting hedge.

    Backend choices derive from a per-(job, attempt) seed via
    :func:`repro.faults.recovery.derive_seed`, keyed by the job's
    *arrival sequence number* at this balancer (job ids are process-
    global and would differ between otherwise identical runs), so the
    dispatch lineage of every attempt is a pure function of the
    balancer's bind-time seed and the arrival index — deterministic
    regardless of how completions and hedge timers interleave.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        threshold: float,
        max_retries: int = 1,
        name: str = "spec-retry",
    ):
        super().__init__(servers, name)
        if threshold <= 0:
            raise ValueError(f"{name}: threshold must be > 0, got {threshold}")
        if max_retries < 0:
            raise ValueError(
                f"{name}: max_retries must be >= 0, got {max_retries}"
            )
        self.threshold = float(threshold)
        self.max_retries = int(max_retries)
        self.retries_issued = 0
        self._lineage_seed = 0
        self._timers: dict[int, list] = {}
        #: logical job id -> arrival sequence number (the seed key).
        self._seqno: dict[int, int] = {}

    def _on_bind(self, sim: Simulation) -> None:
        super()._on_bind(sim)
        rng = sim.spawn_rng()
        self._lineage_seed = int(rng.integers(0, 2**31 - 1))

    def _pick(self, seq: int, attempt: int, used: List[Server]) -> Server:
        from repro.faults.recovery import derive_seed

        rng = seeded_rng(derive_seed(self._lineage_seed, seq, attempt))
        candidates = [s for s in self.servers if s not in used] or self.servers
        return candidates[int(rng.integers(len(candidates)))]

    def arrive(self, job: Job) -> None:
        if job.arrival_time is None:
            job.arrival_time = self.sim.now
        if job.size is None:
            raise ValueError(
                f"{self.name}: speculative retry replays the same work, so "
                f"the logical job's size must be drawn upstream "
                f"(job #{job.job_id} has none)"
            )
        self.dispatched += 1
        self._seqno[job.job_id] = self.dispatched
        backend = self._pick(self.dispatched, 0, [])
        entry = job._replicas(job.size, (backend,))
        self._pending[job.job_id] = entry
        self._arm_timer(job)
        backend.arrive(entry[0][0])

    def _arm_timer(self, logical: Job) -> None:
        attempts = len(self._pending[logical.job_id])
        if attempts > self.max_retries:
            return
        self._timers[logical.job_id] = self.sim.schedule_in(
            self.threshold, partial(self._hedge, logical)
        )

    def _hedge(self, logical: Job) -> None:
        self._timers.pop(logical.job_id, None)
        entry = self._pending.get(logical.job_id)
        if entry is None:
            return  # finished just as the timer fired
        used = [backend for _, backend in entry]
        backend = self._pick(self._seqno[logical.job_id], len(entry), used)
        entry += logical._replicas(logical.size, (backend,))
        self.retries_issued += 1
        self._arm_timer(logical)
        backend.arrive(entry[-1][0])

    def _finalize_extra(self, logical: Job) -> None:
        self._seqno.pop(logical.job_id, None)
        timer = self._timers.pop(logical.job_id, None)
        if timer is not None:
            self.sim.cancel(timer)
