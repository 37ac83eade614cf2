"""A persistent, reusable slave pool for multi-experiment orchestration.

The classic master (:mod:`repro.parallel.master`) spawns slaves for
*one* experiment and tears them down when it converges.  A sweep — a
family of tens of experiment points — would pay that full process
spawn cost per point and share nothing.  :class:`WorkerPool` is the
reusable-pool mode: slaves are spawned once and accept successive
``("configure", job_id, payload)`` messages, each building and running
a complete experiment point before reporting its result and waiting for
the next configure — so interpreter start-up, imports, and fork cost
are paid once per *sweep*, not once per *point*.

Scheduling is dynamic (work stealing in the master-queue sense): every
idle worker immediately pulls the next pending point, so a slow point
on one worker never serializes the rest of the grid behind it.  The
result of a point is a pure function of its job payload, so scheduling
order cannot affect results — determinism is preserved by construction.

Workers are :class:`_PoolSession` objects behind a pluggable
:class:`~repro.parallel.transport.Transport`: the default
:class:`~repro.parallel.transport.LocalPipeTransport` forks them on
this host, a :class:`~repro.parallel.transport.RemoteTransport` binds
slots offered by :mod:`repro.parallel.agent` processes on other
machines, and the inline transport (the sweep's serial backend) steps
one in this thread.  Elastic transports let workers join and leave
mid-run: a vacated slot returns to the join queue instead of
permanently degrading the fleet, and new agents are admitted between
drains up to ``n_workers``.

Fault tolerance mirrors the master's contract and shares its code:
results are collected by the same turn
(:func:`~repro.parallel.transport.collect_replies`: every in-flight job
carries a deadline, every death gets a machine-readable cause code from
:mod:`repro.parallel.protocol`), a dead worker's in-flight point is
requeued (a death costs one point's recompute, not the sweep), and a
:class:`~repro.faults.recovery.RespawnPolicy` replaces the worker under
a fresh generation.  What differs from the master on purpose is respawn
timing: job order is not part of any result, so backoff never blocks
the scheduling loop — a condemned worker is given a *due time* which is
folded into the collection turn's wake-up, and healthy workers keep
reporting while a replacement waits out its backoff.  Due times and
job deadlines are read on the transport's clock, which the inline
transport moves on instead of sleeping.  A seeded
:class:`~repro.faults.plan.FaultPlan` injects deterministic failures
for chaos tests, executed worker-side by the same
:class:`~repro.faults.injector.FaultInjector` as a master slave's;
``round`` in a spec addresses the n-th configure of one worker
incarnation (1-based).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recovery import (
    RespawnPolicy,
    SupervisionError,
    SupervisionPolicy,
    derive_seed,
)
from repro.parallel.protocol import (
    CAUSE_CORRUPT_PAYLOAD,
    CAUSE_DEADLINE_EXCEEDED,
    CAUSE_FLEET_EXHAUSTED,
    CAUSE_PIPE_CLOSED,
    CAUSE_SEND_FAILED,
    CAUSE_WORKER_LEFT,
    ParallelError,
)
from repro.parallel.transport import (
    LocalPipeTransport,
    Transport,
    TransportCapacityError,
    WorkerEndpoint,
    _serve_session,
    collect_replies,
    disconnect_cause,
)


class PoolError(ParallelError):
    """Raised when the pool cannot finish the submitted work."""


class PoolJobError(PoolError):
    """A job raised inside a worker (deterministic; never retried).

    Carries the failing job's id as :attr:`job_id` so a caller
    orchestrating many jobs can tell which one is at fault without
    parsing the message.
    """

    def __init__(self, message: str, job_id: object = None):
        super().__init__(message)
        self.job_id = job_id


# -- worker-side fault execution ----------------------------------------------


def corrupt_result(payload: dict) -> dict:
    """Deterministically mangle a result payload.

    Mirrors the shapes real corruption takes on the wire: the integrity
    digest no longer matches and a required key is truncated away, so
    the master-side validator must catch it before the result is
    accepted (never silently served).
    """
    mangled = dict(payload)
    mangled["point_digest"] = "0" * 32
    mangled.pop("converged", None)
    return mangled


class _PoolSession:
    """One pool worker incarnation: configure → run → report.

    ``faults`` is this incarnation's sub-plan, executed by the same
    :class:`~repro.faults.injector.FaultInjector` hooks, in the same
    order, as a master slave's rounds; ``host`` forwards the
    ``exiter``/``sleeper`` a host that cannot lose its process gives
    the injector.  A pool worker sends no baseline.
    """

    baseline = None

    def __init__(self, runner, faults=(), **host):
        self.runner = runner
        self.injector = FaultInjector(faults, **host)
        self.rounds = 0

    def step(self, message, send) -> None:
        """Run one ``("configure", job_id, job)`` and report it."""
        if not (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == "configure"
        ):  # pragma: no cover - protocol guard
            raise PoolError(f"unknown pool command: {message!r}")
        _, job_id, job = message
        self.rounds += 1
        self.injector.on_chunk_start(self.rounds)
        try:
            payload = self.runner(job)
        except Exception as error:  # simlint: disable=swallow-exception
            # Deliberate boundary: the exception is serialized to the
            # master, which raises PoolJobError with this context.
            send(("error", job_id, f"{type(error).__name__}: {error}"))
            return
        payload = self.injector.filter_report(
            self.rounds, payload, corrupt_result
        )
        # A dropped result is silent: the master's deadline must catch it.
        if payload is not None:
            send(("result", job_id, payload))
            self.injector.after_send(self.rounds)


# -- master side --------------------------------------------------------------


@dataclass
class PoolStats:
    """Health accounting for one pool lifetime."""

    n_workers: int = 0
    jobs_completed: int = 0
    jobs_requeued: int = 0
    deaths: int = 0
    restarts: int = 0
    #: Slots bound to newly joined remote agents (elastic transports).
    joins: int = 0
    #: worker id -> cause code for workers left permanently dead.
    failure_causes: Dict[int, str] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when at least one dead worker was never replaced."""
        return bool(self.failure_causes)


class WorkerPool:
    """A fleet of persistent experiment workers.

    Parameters
    ----------
    runner:
        Module-level (picklable) ``runner(job: dict) -> dict`` executed
        for every configured job inside the worker.
    n_workers:
        Fleet size (for elastic transports: the cap on concurrently
        bound workers).
    master_seed:
        Seeds the deterministic respawn-backoff jitter.
    job_timeout:
        Per-job report deadline in host seconds; a worker silent past
        it is declared dead (cause ``heartbeat timeout``) and its job
        requeued.  ``None`` disables the deadline.
    respawn:
        :class:`RespawnPolicy` for replacing dead workers, or ``None``
        to shrink the fleet on each death (the sweep still finishes on
        survivors; ``PoolError`` only if every worker dies).  Backoff
        is enforced as a per-worker *due time* folded into the wait
        loop, never as a sleep that stalls healthy workers.
    fault_plan:
        Injected failures for chaos runs; specs address
        ``(worker id, generation, n-th configure)``.
    supervision:
        A :class:`~repro.faults.recovery.SupervisionPolicy` for the
        sweep: a fleet floor (counting live workers, scheduled
        respawns, and — for elastic transports — rejoinable slots) and
        a per-``map`` wall-clock deadline.  The deadline always raises
        :class:`~repro.faults.recovery.SupervisionError` (a partial
        sweep is not a meaningful result); the fleet floor raises under
        ``on_exhausted="abort"`` and presses on with the survivors
        under ``"continue"``.  ``None`` (default) keeps the historical
        behavior: the sweep finishes on any nonzero fleet.
    validate:
        Optional master-side ``validate(job, payload) -> Optional[str]``
        returning a rejection reason; a rejected result condemns the
        worker (cause ``corrupt payload``) and requeues the job.
    tracer:
        Optional :class:`repro.observability.Tracer`; the pool emits
        ``pool/*`` events (spawn, dead, respawn, join, drain).
    context:
        ``multiprocessing`` start method for the default local
        transport (ignored when ``transport`` is given).
    transport:
        Worker dispatch backend; defaults to
        :class:`LocalPipeTransport` on this host.
    join_timeout:
        Elastic transports: how long an empty fleet waits for an agent
        to (re)join before the pool gives up.
    """

    def __init__(
        self,
        runner: Callable[[dict], dict],
        n_workers: int = 4,
        master_seed: int = 0,
        job_timeout: Optional[float] = 600.0,
        respawn: Optional[RespawnPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        supervision: Optional[SupervisionPolicy] = None,
        validate: Optional[Callable[[dict, dict], Optional[str]]] = None,
        tracer=None,
        context: str = "fork",
        transport: Optional[Transport] = None,
        join_timeout: float = 30.0,
    ):
        if n_workers < 1:
            raise PoolError(f"need >= 1 worker, got {n_workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise PoolError(
                f"job_timeout must be > 0 or None, got {job_timeout}"
            )
        self.runner = runner
        self.n_workers = n_workers
        self.master_seed = master_seed
        self.job_timeout = job_timeout
        self.respawn = respawn
        self.fault_plan = fault_plan
        self.supervision = supervision
        self.validate = validate
        self.tracer = tracer
        self._owns_transport = transport is None
        self.transport = transport or LocalPipeTransport(context)
        self.join_timeout = join_timeout
        if tracer is not None:
            self.transport.attach_tracer(tracer)
        #: worker id -> live endpoint (one object per incarnation).
        self._workers: Dict[int, WorkerEndpoint] = {}
        self._generation: Dict[int, int] = {}
        self._restarts: Dict[int, int] = {}
        #: worker id -> (respawn due time, backoff used) — scheduled
        #: replacements that have not been admitted yet.
        self._respawn_at: Dict[int, Tuple[float, float]] = {}
        #: Slots waiting for an elastic join (never permanently dead).
        self._unbound: Set[int] = set()
        self._started = False
        self._below_min_traced = False
        self.stats = PoolStats(n_workers=n_workers)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _trace(self, name: str, **fields) -> None:
        if self.tracer is not None:
            self.tracer.event(name, component="pool", **fields)

    def _spawn(self, worker_id: int, timeout: Optional[float] = None) -> None:
        generation = self._generation.setdefault(worker_id, 0)
        endpoint = self.transport.spawn(
            worker_id,
            generation,
            _serve_session,
            (
                _PoolSession,
                self.runner,
                self.fault_plan.for_slave(worker_id, generation)
                if self.fault_plan is not None
                else (),
            ),
            timeout=timeout,
        )
        self._workers[worker_id] = endpoint
        self._trace("spawn", worker=worker_id, generation=generation)

    def start(self) -> None:
        """Bring the fleet up (idempotent).

        Non-elastic transports spawn all ``n_workers`` immediately.
        Elastic transports bind whatever capacity has already
        registered and leave the remaining slots to be admitted as
        agents join — :meth:`map` waits ``join_timeout`` for the first
        worker if none has arrived yet.
        """
        if self._started:
            return
        self.transport.start()
        if self.transport.elastic:
            self._unbound = set(range(self.n_workers))
            self._admit_capacity()
        else:
            for worker_id in range(self.n_workers):
                self._restarts.setdefault(worker_id, 0)
                self._spawn(worker_id)
        self._started = True

    def shutdown(self) -> None:
        """Stop every worker, escalating join → terminate → kill."""
        if not self._started and not self._workers:
            return
        self.transport.shutdown(
            [self._workers[i] for i in sorted(self._workers)]
        )
        if self._owns_transport:
            self.transport.close()
        self._workers.clear()
        self._respawn_at.clear()
        self._unbound.clear()
        self._started = False

    @property
    def alive_workers(self) -> List[int]:
        """Worker ids currently accepting configures."""
        return sorted(self._workers)

    # -- capacity admission --------------------------------------------------

    def _admit_capacity(self) -> None:
        """Spawn due respawns and bind newly joined elastic slots.

        Called at the top of every scheduling iteration so replacement
        capacity is claimed *between* drains — the fleet never mutates
        mid-drain, which is what makes endpoint-identity dispatch in
        :meth:`_drain_ready` airtight.
        """
        now = self.transport._now()
        for worker_id in sorted(self._respawn_at):
            due, backoff = self._respawn_at[worker_id]
            if now < due:
                continue
            try:
                self._spawn(worker_id, timeout=0.0)
            except TransportCapacityError:
                # No agent slot free yet; stays scheduled and will be
                # retried once one registers.
                continue
            del self._respawn_at[worker_id]
            self._restarts[worker_id] = self._restarts.get(worker_id, 0) + 1
            self.stats.restarts += 1
            self._trace(
                "respawn",
                worker=worker_id,
                generation=self._generation[worker_id],
                backoff=backoff,
            )
        while self._unbound and self.transport.capacity() > 0:
            worker_id = min(self._unbound)
            try:
                self._spawn(worker_id, timeout=0.0)
            except TransportCapacityError:
                break  # lost the race with another claimant
            self._unbound.discard(worker_id)
            self._restarts.setdefault(worker_id, 0)
            self.stats.joins += 1
            self._trace(
                "join",
                worker=worker_id,
                generation=self._generation[worker_id],
            )

    def _respawn_due_times(self) -> List[float]:
        return [due for due, _ in self._respawn_at.values()]

    def _await_any_worker(self) -> bool:
        """Block until the empty fleet could hold a worker again.

        Returns False when no worker can ever arrive — no respawn is
        scheduled and (for elastic transports) no agent joined within
        ``join_timeout`` — at which point the caller raises
        :class:`PoolError`.
        """
        dues = self._respawn_due_times()
        if dues:
            delay = min(dues) - self.transport._now()
            if delay > 0:
                # The fleet is empty, so waiting out the earliest
                # backoff stalls nobody.
                self.transport.wait((), timeout=delay)
                return True
        elif not (self._unbound and self.transport.elastic):
            return False
        return (
            self.transport.capacity() > 0
            or self.transport.wait_for_capacity(self.join_timeout)
        )

    # -- supervision ---------------------------------------------------------

    def _effective_workers(self) -> int:
        """Workers that can still contribute: live + scheduled respawns
        + (elastic only) slots an agent could rejoin."""
        effective = len(self._workers) + len(self._respawn_at)
        if self.transport.elastic:
            effective += len(self._unbound)
        return effective

    def _enforce_supervision(self, map_started: float) -> None:
        """Deadline and fleet-floor checks, once per scheduling turn.

        A raised :class:`SupervisionError` leaves in-flight reports
        undrained — call :meth:`shutdown` before reusing the pool.
        """
        policy = self.supervision
        if policy is None:
            return
        if policy.deadline is not None:
            elapsed = time.monotonic() - map_started
            if elapsed > policy.deadline:
                raise SupervisionError(
                    f"sweep exceeded its deadline ({elapsed:.1f}s > "
                    f"{policy.deadline:.1f}s) with "
                    f"{self.stats.jobs_completed} job(s) completed",
                    cause=CAUSE_DEADLINE_EXCEEDED,
                )
        effective = self._effective_workers()
        if policy.fleet_ok(effective):
            self._below_min_traced = False
            return
        if policy.on_exhausted == "abort":
            raise SupervisionError(
                f"pool fleet fell to {effective} effective worker(s), "
                f"below min_workers={policy.min_workers}; causes: "
                f"{self.stats.failure_causes}",
                cause=CAUSE_FLEET_EXHAUSTED,
            )
        if not self._below_min_traced:
            self._below_min_traced = True
            self._trace(
                "fleet_below_minimum",
                effective=effective,
                min_workers=policy.min_workers,
            )

    # -- failure handling ----------------------------------------------------

    def _collect(self, busy: Dict[int, tuple], wake=None) -> List[tuple]:
        """One collection turn over every worker with a job in flight.

        Over pipes an EOF means the forked worker died; over an elastic
        socket transport it usually means its host agent left the
        fleet, so the distinction is surfaced in the cause code.
        """
        return collect_replies(
            self.transport,
            {w: (self._workers[w], busy[w][1]) for w in sorted(busy)},
            CAUSE_WORKER_LEFT if self.transport.elastic else CAUSE_PIPE_CLOSED,
            wake,
        )

    def _condemn(
        self, worker_id: int, cause: str,
        pending: deque, busy: Dict[int, tuple],
    ) -> None:
        """Drop one worker; requeue its in-flight job; plan replacement.

        Replacement is *scheduled*, never performed here: a respawn
        gets a due time (now + backoff) recorded in ``_respawn_at`` and
        is admitted by :meth:`_admit_capacity` once due, so an
        exponential backoff never blocks result collection from the
        healthy rest of the fleet.
        """
        self.stats.deaths += 1
        assignment = busy.pop(worker_id, None)
        if assignment is not None:
            # The dead worker costs exactly its one in-flight point.
            pending.appendleft(assignment[0])
            self.stats.jobs_requeued += 1
        endpoint = self._workers.pop(worker_id, None)
        if endpoint is not None:
            endpoint.close()
            self.transport.reap(endpoint)
        generation = self._generation.get(worker_id, 0)
        self._trace(
            "dead", worker=worker_id, cause=cause, generation=generation
        )
        # The next incarnation — respawn or rejoin — always gets a
        # fresh generation so seed lineage and fault addressing never
        # collide with the dead one.
        self._generation[worker_id] = generation + 1
        if self.respawn is not None and self.respawn.allows(
            self._restarts.get(worker_id, 0), self.stats.restarts
        ):
            delay = self.respawn.delay(
                generation + 1,
                jitter_seed=derive_seed(
                    self.master_seed, worker_id, generation + 1
                ),
            )
            self._respawn_at[worker_id] = (
                self.transport._now() + delay, delay
            )
        elif self.transport.elastic:
            # Elastic fleets shrink and re-grow: the slot goes back to
            # the join queue instead of being branded permanently dead.
            self._unbound.add(worker_id)
            self._trace("slot_vacated", worker=worker_id, cause=cause)
        else:
            self.stats.failure_causes[worker_id] = cause

    def _drain_busy(
        self, pending: deque, busy: Dict[int, tuple], replies=(),
    ) -> None:
        """Absorb every in-flight report before :meth:`map` raises.

        When a job errors, ``map`` aborts — but other workers still owe
        reports for their in-flight jobs.  Leaving those unread would
        poison the next ``map()`` call: it would read the stale
        ``("result", old_job_id, ...)`` messages first, mismatch them
        against its own jobs, and condemn perfectly healthy workers as
        corrupt.  So before raising we wait each straggler out (against
        its original deadline), discard its report, and condemn only
        the ones that actually die or time out.  ``replies`` is what the
        aborted turn had already read from other workers.
        """
        drained = 0
        while True:
            for worker_id, _, cause in replies:
                if cause is not None:
                    self._condemn(worker_id, cause, pending, busy)
                else:
                    # Whatever the worker reported — result or error —
                    # the assignment is absorbed and it is idle again.
                    busy.pop(worker_id)
                    drained += 1
            if not busy:
                break
            replies = self._collect(busy)
        if drained:
            self._trace("drain", absorbed=drained)

    # -- the scheduling loop -------------------------------------------------

    def map(self, jobs: List[Tuple[object, dict]]) -> Dict[object, dict]:
        """Run every ``(job_id, payload)`` job; return results by id.

        Idle workers pull pending jobs as soon as they report, so the
        schedule load-balances itself.  Worker deaths requeue their
        in-flight job; a job that *raises* inside a worker surfaces as
        :class:`PoolJobError` immediately (it would fail identically on
        any worker) — after the in-flight work of other workers has
        been drained, so the pool stays reusable.
        """
        self.start()
        pending: deque = deque(jobs)
        busy: Dict[int, tuple] = {}  # worker -> ((job_id, payload), deadline)
        results: Dict[object, dict] = {}
        map_started = time.monotonic()
        while pending or busy:
            self._admit_capacity()
            self._enforce_supervision(map_started)
            if not self._workers:
                if busy:  # pragma: no cover - invariant guard
                    raise PoolError("busy workers without endpoints")
                if not self._await_any_worker():
                    raise PoolError(
                        f"every pool worker has died "
                        f"({self.n_workers} started); causes: "
                        f"{self.stats.failure_causes}"
                    )
                continue
            # Feed every idle worker before blocking.
            for worker_id in sorted(self._workers):
                if not pending:
                    break
                if worker_id in busy:
                    continue
                job = pending.popleft()
                try:
                    self._workers[worker_id].send(
                        ("configure", job[0], job[1])
                    )
                except (BrokenPipeError, OSError) as error:
                    # The job never started, so it goes straight back to
                    # the queue without counting as a requeue.
                    pending.appendleft(job)
                    cause = f"{CAUSE_SEND_FAILED}: {error}"
                    self._condemn(
                        worker_id, disconnect_cause(error, cause),
                        pending, busy,
                    )
                    continue
                deadline = (
                    self.transport._now() + self.job_timeout
                    if self.job_timeout is not None
                    else None
                )
                busy[worker_id] = (job, deadline)
            if not busy:
                continue  # all survivors were condemned while feeding
            # Besides the job deadlines, wake for a scheduled respawn
            # becoming due.  One that is due but blocked on capacity
            # (elastic lobby empty) is polled for, like newly joined
            # agents while the fleet is under strength and there is
            # work they could pull, rather than spun on.
            now = self.transport._now()
            dues = self._respawn_due_times()
            wakes = [due for due in dues if due > now]
            overdue = len(wakes) < len(dues)
            if self.transport.elastic and pending and (
                self._unbound or overdue
            ):
                wakes.append(now + 0.5)
            replies = self._collect(busy, wake=min(wakes, default=None))
            for consumed, (worker_id, message, cause) in enumerate(replies, 1):
                if cause is not None:
                    self._condemn(worker_id, cause, pending, busy)
                    continue
                job = busy[worker_id][0]
                tag = message[0] if isinstance(message, tuple) else None
                if tag == "error" and message[1] == job[0]:
                    # Deterministic job failure: absorb everyone else's
                    # in-flight reports first so the fleet is clean for
                    # the next map(), then surface the error.
                    busy.pop(worker_id)
                    self._drain_busy(pending, busy, replies[consumed:])
                    raise PoolJobError(
                        f"job {message[1]!r} failed in worker "
                        f"{worker_id}: {message[2]}",
                        job_id=message[1],
                    )
                if tag not in ("result", "error") or message[1] != job[0]:
                    self._condemn(
                        worker_id,
                        f"{CAUSE_CORRUPT_PAYLOAD}: unexpected message "
                        f"{tag!r}",
                        pending, busy,
                    )
                    continue
                payload = message[2]
                problem = (
                    self.validate(job[1], payload)
                    if self.validate is not None
                    else None
                )
                if problem is not None:
                    self._condemn(
                        worker_id,
                        f"{CAUSE_CORRUPT_PAYLOAD}: {problem}",
                        pending, busy,
                    )
                    continue
                busy.pop(worker_id)
                results[job[0]] = payload
                self.stats.jobs_completed += 1
        return results
