"""The parallel master: one round loop over a :class:`Transport`.

Protocol (Fig. 3):

1. master runs warm-up + calibration of a serial instance, fixing the
   histogram bin scheme per metric;
2. the bin schemes are broadcast; every slave builds its *own* replica of
   the experiment under a unique seed and runs its own warm-up +
   calibration (lag only — the scheme is imposed);
3. slaves measure in chunks, reporting bin-count *deltas* since their
   previous report;
4. the master folds each delta into persistent merged histograms and
   signals stop as soon as the merged (aggregate) sample satisfies
   Eqs. 2-3;
5. final estimates are read off the merged histograms.

Chunk sizes grow geometrically per round up to ``16 * chunk_size``: early
rounds stay small so convergence is detected promptly on easy targets,
later rounds amortize the report/merge overhead on hard ones.  The
master computes the schedule and runs the same loop whatever carries
the messages — ``backend="serial"`` steps each slave's session on the
zero-thread inline transport, ``"process"`` forks the one pipe loop
(:mod:`repro.parallel.transport` hosts both), ``"remote"`` dials
agents — so every backend sees identical per-round chunk sizes and
produces identical merged counts.

**Fault tolerance** (see docs/robustness.md).  The master treats slave
death as an input, not an exception: every recv carries a per-round
deadline (a hung slave can no longer stall a round), every death gets a
machine-readable cause code, and — with a
:class:`~repro.faults.recovery.RespawnPolicy` — a replacement slave is
spawned under a fresh generation-aware seed and *re-accumulates* the
dead slave's unreported quota, so a recovered run converges
``degraded=False``.  Deaths never erase merged history: everything a
slave reported in earlier rounds stays valid.  Periodic checkpoints
(:mod:`repro.faults.checkpoint`) record the merged state plus each
slave's work log; ``run(resume_from=...)`` rebuilds slaves by replaying
those logs, bit-for-bit.  A
:class:`~repro.faults.plan.FaultPlan` injects deterministic failures
for chaos testing: its worker kinds on every backend, its frame kinds
through a :class:`~repro.parallel.chaos.ChaosTransport` the master
wraps around a framed transport.

The experiment ``factory`` must be a callable ``factory(seed, **kwargs)
-> Experiment`` that declares the same metrics every time.  For the
``process`` backend it must be picklable (a module-level function).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.convergence import MetricTargets, judge
from repro.core.histogram import Histogram
from repro.core.statistic import Estimate, Phase
from repro.faults.recovery import (
    RespawnPolicy,
    SeedLineage,
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
    DeltaTracker,
    ParallelError,
    SlaveReport,
    payload_digest,
    scheme_from_payload,
    scheme_payload,
    validate_report_payload,
)

# What only a run uses -- the transports, the fault plan and its
# injector, checkpoints -- is imported where the run needs it, so that
# importing this module loads none of it.
if TYPE_CHECKING:
    from repro.engine.experiment import Experiment
    from repro.faults.checkpoint import CheckpointState
    from repro.faults.plan import FaultPlan
    from repro.parallel.transport import Transport, WorkerEndpoint

#: Event budget of one slave chunk (and of each replayed chunk).
_CHUNK_EVENTS = 10_000_000
#: Round quotas double from ``chunk_size`` up to this multiple of it.
_CHUNK_GROWTH = 16


def build_slave_experiment(
    factory: Callable[..., Experiment],
    factory_kwargs: dict,
    seed: int,
    schemes: Dict[str, tuple],
) -> Experiment:
    """Instantiate a slave replica with the master's bin schemes imposed."""
    experiment = factory(seed=seed, **factory_kwargs)
    for name, payload in schemes.items():
        if name not in experiment.stats:
            raise ParallelError(
                f"factory did not declare metric {name!r} for seed {seed}"
            )
        experiment.stats[name].fixed_scheme = scheme_from_payload(payload)
    return experiment


class _SlaveSession:
    """One slave incarnation, whatever carries its messages.

    Construction builds the replica and, on resume, fast-forwards it
    through ``replay`` (a logged chunk schedule); :attr:`baseline` is
    then the report the master validates and discards.  ``faults`` is
    this incarnation's picklable fault sub-plan; ``round_offset`` maps
    local command numbering onto master rounds so fault specs address
    the same round on every backend.  ``host`` forwards the
    ``sleeper`` that a host which must not sleep gives the
    :class:`~repro.faults.injector.FaultInjector`.
    """

    def __init__(
        self,
        factory,
        factory_kwargs,
        seed,
        schemes,
        slave_id,
        faults=(),
        replay=(),
        round_offset=0,
        **host,
    ):
        from repro.faults.injector import FaultInjector

        self.experiment = build_slave_experiment(
            factory, factory_kwargs, seed, schemes
        )
        self.slave_id = slave_id
        self.tracker = DeltaTracker()
        self.injector = FaultInjector(faults, **host)
        self.round_number = round_offset
        self.baseline: Optional[SlaveReport] = None
        if replay:
            self.experiment.replay_chunks(replay, max_events=_CHUNK_EVENTS)
            self.baseline = self._report()

    def _report(self) -> SlaveReport:
        experiment = self.experiment
        histograms = {}
        lags = {}
        for statistic in experiment.stats:
            if statistic.histogram is not None:
                histograms[statistic.name] = statistic.histogram.to_payload()
            lags[statistic.name] = statistic.lag
        probe = experiment.simulation.probe
        return SlaveReport(
            slave_id=self.slave_id,
            histograms=self.tracker.delta_histograms(histograms),
            events_processed=experiment.simulation.events_processed,
            sim_time=experiment.simulation.now,
            total_accepted=experiment.stats.total_accepted,
            lags=lags,
            digest=probe.snapshot() if probe is not None else None,
        )

    def step(self, command, send) -> None:
        """Measure the ``("chunk", quota)`` the master commanded and
        report it through ``send``."""
        if not (
            isinstance(command, tuple)
            and len(command) == 2
            and command[0] == "chunk"
        ):  # pragma: no cover - protocol guard
            raise ParallelError(f"unknown command: {command!r}")
        self.round_number += 1
        self.injector.on_chunk_start(self.round_number)
        self.experiment.run_until_accepted(command[1], max_events=_CHUNK_EVENTS)
        report = self.injector.filter_report(self.round_number, self._report())
        # A dropped report skips after_send: there was no send for a
        # post_report kill to follow (FaultPlan rejects that pairing).
        if report is not None:
            send(report)
            self.injector.after_send(self.round_number)


@dataclass
class ParallelResult:
    """Outcome of a distributed simulation."""

    estimates: Dict[str, Estimate]
    converged: bool
    n_slaves: int
    rounds: int
    master_events: int
    slave_events: List[int]
    total_accepted: int
    wall_time: float
    master_wall_time: float
    extras: Dict[str, float] = field(default_factory=dict)
    #: Per-slave cumulative determinism digests (from the final round's
    #: reports) when slaves ran sanitized, else None.  Comparable across
    #: backends: the master owns the chunk schedule, so slave ``i``
    #: replays the same stream serial or process-parallel.
    slave_digests: Optional[List] = None
    #: True when one or more slaves died and were *not* replaced (no
    #: respawn policy, or its budget ran out).  A degraded result is
    #: statistically valid (every merged observation is real) but
    #: covers fewer independent replicas than requested.  A run whose
    #: every death was recovered by respawn is NOT degraded.
    degraded: bool = False
    #: Slave ids left permanently dead (empty when healthy/recovered).
    dead_slaves: List[int] = field(default_factory=list)
    #: Machine-readable cause code per permanently dead slave
    #: (see the CAUSE_* constants in repro.parallel.protocol).
    failure_causes: Dict[int, str] = field(default_factory=dict)
    #: Respawns performed across the run (0 for a healthy run).
    restarts: int = 0
    #: Final merged-histogram digests per metric: the byte-identity
    #: fingerprint used by the checkpoint/resume determinism contract.
    merged_digests: Dict[str, str] = field(default_factory=dict)
    #: True when this run was restored from a checkpoint.
    resumed: bool = False
    #: repro.observability.ExperimentTelemetry when telemetry was
    #: collected (tracer attached), else None.
    telemetry: Optional[object] = None

    def __getitem__(self, name: str) -> Estimate:
        return self.estimates[name]

    @property
    def total_events(self) -> int:
        """Events simulated across master + all slaves."""
        return self.master_events + sum(self.slave_events)


class _RunBook:
    """The master's ledger: the checkpoint's own records, kept live.

    One :class:`~repro.faults.checkpoint.SlaveCheckpoint` per slave id
    (the current incarnation's seed and generation, its work log, the
    quota owed to a replacement, accounting across incarnations, its
    respawn count), the cause code of every slave that is dead and not
    replaced, and the seed lineage.  The round loop mutates the
    records, a checkpoint writes them as they stand and a resume adopts
    the ones it read.  A dead slave keeps its record: dropping its
    generation, restart count or owed quota would refill its respawn
    budget on resume and re-issue a seed the lineage already spent.
    """

    def __init__(
        self,
        n_slaves: int,
        master_seed: int,
        resume: Optional[CheckpointState] = None,
    ):
        from repro.faults.checkpoint import SlaveCheckpoint

        self.lineage = SeedLineage(master_seed)
        self.causes: Dict[int, str] = {}
        self.total_restarts = 0
        if resume is None:
            fleet = [
                SlaveCheckpoint(slave_id, self.lineage.issue(slave_id), 0)
                for slave_id in range(n_slaves)
            ]
        else:
            fleet = resume.slaves
            self.causes.update(resume.dead)
            self.total_restarts = resume.total_restarts
            # Re-issue the recorded lineage so post-resume respawns keep
            # the uniqueness guarantee against pre-interruption seeds.
            for _seed, slave_id, generation in resume.lineage:
                if slave_id >= 0:
                    self.lineage.issue(slave_id, generation)
            for slave in fleet:  # a seed is derived, never taken on trust
                slave.seed = self.lineage.issue(
                    slave.slave_id, slave.generation
                )
        self.slaves = {slave.slave_id: slave for slave in fleet}

    @property
    def dead(self) -> List[int]:
        """Slaves dead and not replaced, ascending; ``causes`` says why."""
        return sorted(self.causes)

    # -- per-round transitions ----------------------------------------------

    def command(self, slave_id: int, chunk: int) -> int:
        """This round's quota: the schedule chunk on top of any backlog.

        It is owed from here until a report covers it — from this
        incarnation or, should it die first, from a replacement.
        """
        slave = self.slaves[slave_id]
        slave.owed += chunk
        return slave.owed

    def on_reported(self, slave_id: int, report) -> None:
        """The report for the commanded quota arrived and was merged."""
        slave = self.slaves[slave_id]
        slave.chunks.append(slave.owed)
        slave.owed = 0
        slave.events_processed = report.events_processed
        slave.total_accepted = report.total_accepted

    def respawn(self, slave_id: int) -> None:
        """Advance to the next generation (its slave is already up)."""
        slave = self.slaves[slave_id]
        slave.prior_events += slave.events_processed
        slave.prior_accepted += slave.total_accepted
        slave.events_processed = slave.total_accepted = 0
        slave.generation += 1
        slave.restarts += 1
        self.total_restarts += 1
        slave.chunks = []
        del self.causes[slave_id]
        slave.seed = self.lineage.issue(slave_id, slave.generation)

    # -- result accounting ---------------------------------------------------

    def events_total(self) -> List[int]:
        """Events per slave id, summed over its incarnations."""
        return [
            slave.prior_events + slave.events_processed
            for slave in self.slaves.values()
        ]

    def accepted_total(self) -> int:
        """Observations accepted by the whole fleet, dead and alive."""
        return sum(
            slave.prior_accepted + slave.total_accepted
            for slave in self.slaves.values()
        )


class ParallelSimulation:
    """Master orchestration of a distributed BigHouse run.

    Parameters
    ----------
    factory:
        ``factory(seed, **factory_kwargs) -> Experiment``; must declare
        identical metrics on every call.
    n_slaves:
        Number of measurement replicas.
    backend:
        ``"serial"`` (slaves stepped inline in this thread),
        ``"process"`` (one OS process per slave on this host), or
        ``"remote"`` (slaves hosted by :mod:`repro.parallel.agent`
        processes over a :class:`~repro.parallel.transport.RemoteTransport`;
        requires ``transport``).  All backends run the one round loop
        and master schedule, so merged digests are bit-identical.
    chunk_size:
        Accepted observations per slave in the first round between
        merges; later rounds double it up to ``16 * chunk_size``.
    max_rounds:
        Safety bound on measure/merge rounds.
    round_timeout:
        Per-round recv deadline in host seconds.  A slave that produces
        no report within the deadline is marked dead with cause
        ``"heartbeat timeout"`` instead of stalling the round forever
        (the serial backend never waits: silence is detected at once).
        ``None`` disables the deadline (the historical blocking behavior).
    respawn:
        A :class:`~repro.faults.recovery.RespawnPolicy` enabling
        automatic replacement of dead slaves, or ``None`` (default) to
        keep the detect-and-degrade behavior.
    supervision:
        A :class:`~repro.faults.recovery.SupervisionPolicy` governing
        the run's fate as the fleet shrinks: a fleet floor
        (``min_workers``) and a measurement-phase wall-clock ``deadline``.  Violations
        raise :class:`~repro.faults.recovery.SupervisionError` with a
        machine-readable cause, or — with ``on_exhausted="continue"``
        — let the run finish ``degraded=True`` with whatever survives.
        ``None`` (default) keeps the historical behavior: run until
        every slave is dead, flag any unreplaced death degraded.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` of injected failures
        for chaos runs, or ``None``.  Worker kinds go to each slave's
        fault injector; frame kinds need a framed ``transport`` (remote
        or memory), which the run wraps in a
        :class:`~repro.parallel.chaos.ChaosTransport` (on any other
        backend the run raises
        :class:`~repro.parallel.transport.TransportError`).
    checkpoint_path / checkpoint_interval:
        When ``checkpoint_path`` is set, an atomic resumable snapshot
        is written there every ``checkpoint_interval`` rounds; restore
        with ``run(resume_from=checkpoint_path)``.
    transport:
        Worker dispatch backend for the process/remote backends.
        Defaults to a fresh :class:`LocalPipeTransport` per run for
        ``"process"``; required for ``"remote"``.  A caller-provided
        transport is never closed by the run — its owner closes it.
    join_timeout:
        Remote backend: how long to wait for an agent slot when
        spawning or respawning a slave.
    """

    def __init__(
        self,
        factory: Callable[..., Experiment],
        factory_kwargs: Optional[dict] = None,
        n_slaves: int = 4,
        master_seed: int = 0,
        chunk_size: int = 2000,
        backend: str = "serial",
        max_rounds: int = 10_000,
        round_timeout: Optional[float] = 600.0,
        respawn: Optional[RespawnPolicy] = None,
        supervision: Optional[SupervisionPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        checkpoint_path=None,
        checkpoint_interval: int = 1,
        transport: Optional[Transport] = None,
        join_timeout: float = 30.0,
    ):
        if n_slaves < 1:
            raise ParallelError(f"need >= 1 slave, got {n_slaves}")
        if chunk_size < 1:
            raise ParallelError(f"chunk_size must be >= 1, got {chunk_size}")
        if backend not in ("serial", "process", "remote"):
            raise ParallelError(f"unknown backend {backend!r}")
        if backend == "remote" and transport is None:
            raise ParallelError(
                "backend 'remote' needs a transport (a RemoteTransport "
                "listening for repro agents)"
            )
        if round_timeout is not None and round_timeout <= 0:
            raise ParallelError(
                f"round_timeout must be > 0 or None, got {round_timeout}"
            )
        if checkpoint_interval < 1:
            raise ParallelError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
            )
        self.factory = factory
        self.factory_kwargs = dict(factory_kwargs or {})
        self.n_slaves = n_slaves
        self.master_seed = master_seed
        self.chunk_size = chunk_size
        self.backend = backend
        self.max_rounds = max_rounds
        self.round_timeout = round_timeout
        self.respawn = respawn
        self.supervision = supervision
        self.fault_plan = fault_plan
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.transport = transport
        self.join_timeout = join_timeout
        self._tracer = None
        self._progress = None
        self._master_events = 0

    # -- observability ---------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.observability.Tracer` to the master.

        The master emits ``master/*`` records (merge spans when the
        tracer carries a host clock, round counters, dead-slave /
        respawn / checkpoint events) and ``slave/*`` report events.
        The calibration experiment also inherits the tracer, so a
        traced parallel run covers engine, statistic, master, and slave
        components.  The parallel layer is the boundary: host-clock use
        is legitimate here.
        """
        self._tracer = tracer

    def attach_progress(self, reporter) -> None:
        """Attach a ProgressReporter; it renders per-round convergence."""
        self._progress = reporter

    def _trace_round(self, round_number: int, reports: List[SlaveReport]) -> None:
        tracer = self._tracer
        if tracer is None:
            return
        for report in reports:
            tracer.event(
                "report",
                component="slave",
                sim_time=report.sim_time,
                slave=report.slave_id,
                round=round_number,
                events=report.events_processed,
                accepted=report.total_accepted,
            )

    def _trace_event(self, name: str, component: str = "master", **fields) -> None:
        if self._tracer is not None:
            self._tracer.event(name, component=component, **fields)

    def _trace_scheduled_faults(self, round_number: int) -> None:
        """Emit the plan's worker-kind entries for this round (chaos
        audit trail; a frame kind is traced as ``transport/net_fault``
        when it fires)."""
        if self.fault_plan is None or self._tracer is None:
            return
        for spec in self.fault_plan.at_round(round_number):
            self._trace_event(
                "fault_scheduled",
                component="faults",
                slave=spec.slave_id,
                round=spec.round,
                fault=spec.kind,
                generation=spec.generation,
                phase=spec.phase,
            )

    def _merge_round(self, merged, reports, round_number: int) -> None:
        """One reduce step: fold the round's delta reports into ``merged``
        in place, traced as a ``master/merge`` span when possible."""
        tracer = self._tracer
        span = (
            tracer.span(
                "merge", component="master",
                round=round_number, reports=len(reports),
            )
            if tracer is not None and tracer.has_clock
            else nullcontext()
        )
        with span:
            for report in reports:
                for name, payload in report.histograms.items():
                    merged[name].merge_payload(payload)

    def _round_chunk(self, round_number: int) -> int:
        """Accepted-observation quota per slave for one round (1-based).

        Geometric growth capped at ``16 * chunk_size``; computed by the
        master so every backend follows the identical schedule.
        """
        grown = self.chunk_size << min(round_number - 1, 60)
        return min(grown, _CHUNK_GROWTH * self.chunk_size)

    # -- master steps ----------------------------------------------------------

    def _calibrate_master(self):
        master = self.factory(seed=self.master_seed, **self.factory_kwargs)
        if self._tracer is not None:
            master.attach_tracer(self._tracer)
        master.run_until_calibrated()
        for statistic in master.stats:
            if statistic.phase not in (Phase.MEASUREMENT, Phase.CONVERGED):
                raise ParallelError(
                    f"master failed to calibrate metric {statistic.name!r} "
                    f"(stuck in {statistic.phase.value})"
                )
        schemes = {
            statistic.name: scheme_payload(statistic.histogram.scheme)
            for statistic in master.stats
        }
        targets = {
            statistic.name: statistic.targets for statistic in master.stats
        }
        return master, schemes, targets

    @staticmethod
    def _all_converged(
        merged: Dict[str, Histogram], targets: Dict[str, MetricTargets]
    ) -> bool:
        return all(
            judge(merged[name], target).converged
            for name, target in targets.items()
        )

    @staticmethod
    def _estimates(
        merged: Dict[str, Histogram], targets: Dict[str, MetricTargets]
    ) -> Dict[str, Estimate]:
        """Each metric's report, judged on its own merged histogram: a
        metric that met its target says so even when the run stopped
        before every metric did."""
        estimates = {}
        for name, target in targets.items():
            verdict = judge(merged[name], target)
            phase = Phase.CONVERGED if verdict.converged else Phase.MEASUREMENT
            estimates[name] = Estimate.from_verdict(
                verdict, phase, None, verdict.count
            )
        return estimates

    # -- report validation / fault handling -------------------------------------

    def _report_problem(
        self, report, slave_id: int, schemes: Dict[str, tuple]
    ) -> Optional[str]:
        """Why a received report must be rejected, or None when clean."""
        if not isinstance(report, SlaveReport):
            return f"expected a SlaveReport, got {type(report).__name__}"
        if report.slave_id != slave_id:
            return (
                f"report claims slave {report.slave_id}, "
                f"expected {slave_id}"
            )
        for name, payload in report.histograms.items():
            if name not in schemes:
                return f"report carries unknown metric {name!r}"
            problem = validate_report_payload(payload, schemes[name])
            if problem is not None:
                return f"{name}: {problem}"
        return None

    def _respawn_candidates(self, book: _RunBook) -> List[int]:
        """Dead slaves the policy will replace this round (budget check)."""
        if self.respawn is None:
            return []
        chosen = []
        total = book.total_restarts
        for slave_id in book.dead:
            if self.respawn.allows(book.slaves[slave_id].restarts, total):
                chosen.append(slave_id)
                total += 1
        return chosen

    # -- supervision --------------------------------------------------------------

    def _enforce_fleet(self, survivors: int, rounds: int) -> None:
        """Abort (typed) when the fleet fell below what the run needs.

        Called after each round's deaths and respawns have settled.
        Without a supervision policy this keeps the historical contract:
        zero survivors is fatal, anything else continues.
        """
        policy = self.supervision
        if survivors == 0:
            message = (
                f"every slave has died ({self.n_slaves} started, "
                f"last loss in round {rounds}); no survivors to "
                "finish the run"
            )
            if policy is not None:
                raise SupervisionError(message, cause=CAUSE_FLEET_EXHAUSTED)
            raise ParallelError(message)
        if policy is None or policy.fleet_ok(survivors):
            return
        if policy.on_exhausted == "abort":
            raise SupervisionError(
                f"fleet fell to {survivors} live slave(s) in round "
                f"{rounds}, below min_workers={policy.min_workers}",
                cause=CAUSE_FLEET_EXHAUSTED,
            )
        self._trace_event(
            "fleet_below_minimum", survivors=survivors, round=rounds,
            min_workers=policy.min_workers,
        )

    def _deadline_exceeded(self, elapsed: float, rounds: int) -> bool:
        """Whether the supervision deadline has passed (and abort if so).

        Returns True to tell the caller to stop cleanly (``"continue"``:
        finish with the merged-so-far state flagged degraded); raises
        :class:`SupervisionError` under ``"abort"``.  ``elapsed`` is
        read on the transport's clock from the start of the measurement
        phase, so calibration cost never eats the budget and reply
        waits the inline transport skips count as on any backend.
        """
        policy = self.supervision
        if policy is None or policy.deadline is None:
            return False
        if elapsed <= policy.deadline:
            return False
        if policy.on_exhausted == "abort":
            raise SupervisionError(
                f"run exceeded its deadline ({elapsed:.1f}s > "
                f"{policy.deadline:.1f}s) after {rounds} round(s)",
                cause=CAUSE_DEADLINE_EXCEEDED,
            )
        self._trace_event(
            "deadline_stop", round=rounds, elapsed=elapsed,
            deadline=policy.deadline,
        )
        return True

    # -- checkpointing -----------------------------------------------------------

    def _schedule(self) -> Dict[str, object]:
        """What fixes the deterministic chunk schedule, as a checkpoint
        records it and a resume must find it.

        ``adaptive_chunking`` and ``delta_reports`` were options once;
        a file written with either off followed a schedule (or merged a
        report form) this master no longer has, so it is refused rather
        than resumed onto a different one.
        """
        return {
            "master_seed": self.master_seed,
            "n_slaves": self.n_slaves,
            "chunk_size": self.chunk_size,
            "adaptive_chunking": True,
            "max_chunk_size": _CHUNK_GROWTH * self.chunk_size,
            "delta_reports": True,
        }

    def _maybe_checkpoint(
        self, book, schemes, targets, merged, round_number
    ) -> None:
        if self.checkpoint_path is None:
            return
        if round_number % self.checkpoint_interval != 0:
            return
        from repro.faults.checkpoint import CheckpointState, write_checkpoint

        state = CheckpointState(
            **self._schedule(),
            round=round_number,
            master_events=self._master_events,
            schemes=schemes,
            targets={
                name: target.to_record() for name, target in targets.items()
            },
            merged={
                name: histogram.to_payload()
                for name, histogram in merged.items()
            },
            slaves=list(book.slaves.values()),
            dead=book.causes,
            lineage=book.lineage.issued(),
            total_restarts=book.total_restarts,
        )
        write_checkpoint(self.checkpoint_path, state)
        self._trace_event("checkpoint", round=round_number)

    # -- running ----------------------------------------------------------------

    def run(self, resume_from=None) -> ParallelResult:
        """Execute the full master/slave protocol.

        With ``resume_from`` set to a checkpoint path, calibration is
        skipped (schemes and targets come from the checkpoint), slaves
        are rebuilt by replaying their logged chunk schedules, and the
        run continues from the checkpointed round — producing merged
        histograms byte-identical to an uninterrupted run.
        """
        started = time.perf_counter()
        master_wall = 0.0
        if resume_from is not None:
            from repro.faults.checkpoint import CheckpointError, read_checkpoint

            resume = read_checkpoint(resume_from)
            for key, value in self._schedule().items():
                found = getattr(resume, key)
                if found != value:
                    raise CheckpointError(
                        f"checkpoint is incompatible: {key} is {found!r}, "
                        f"this run is configured with {value!r}"
                    )
            schemes = resume.schemes
            targets = {
                name: MetricTargets.from_record(name, record)
                for name, record in resume.targets.items()
            }
            merged = {
                name: Histogram.from_payload(payload)
                for name, payload in resume.merged.items()
            }
            self._master_events = resume.master_events
            self._trace_event("resume", round=resume.round)
        else:
            resume = None
            master, schemes, targets = self._calibrate_master()
            merged = {
                name: Histogram(scheme_from_payload(payload))
                for name, payload in schemes.items()
            }
            self._master_events = master.simulation.events_processed
            master_wall = time.perf_counter() - started
        book = _RunBook(self.n_slaves, self.master_seed, resume)
        converged, rounds, reports, deadline_stopped = self._run_rounds(
            book, schemes, targets, merged, resume.round if resume else 0
        )
        dead = book.dead
        result = ParallelResult(
            estimates=self._estimates(merged, targets),
            converged=converged,
            n_slaves=self.n_slaves,
            rounds=rounds,
            master_events=self._master_events,
            slave_events=book.events_total(),
            total_accepted=book.accepted_total(),
            wall_time=time.perf_counter() - started,
            master_wall_time=master_wall,
            slave_digests=(
                [report.digest for report in reports]
                if any(report.digest is not None for report in reports)
                else None
            ),
            degraded=deadline_stopped or bool(dead),
            dead_slaves=dead,
            failure_causes={i: book.causes[i] for i in dead},
            restarts=book.total_restarts,
            merged_digests={
                name: payload_digest(histogram.to_payload())
                for name, histogram in merged.items()
            },
            resumed=resume is not None,
        )
        if self._tracer is not None:
            from repro.observability.telemetry import ExperimentTelemetry

            result.telemetry = ExperimentTelemetry.from_parallel(
                result, tracer=self._tracer, dead_slaves=result.dead_slaves
            )
        return result

    def _spawn_slave(
        self, transport: Transport, slave_id: int, generation: int,
        seed: int, schemes, replay=(), round_offset=0,
    ) -> WorkerEndpoint:
        from repro.parallel.transport import _serve_session

        return transport.spawn(
            slave_id,
            generation,
            _serve_session,
            (
                _SlaveSession,
                self.factory,
                self.factory_kwargs,
                seed,
                schemes,
                slave_id,
                self.fault_plan.for_slave(slave_id, generation)
                if self.fault_plan is not None
                else (),
                tuple(replay),
                round_offset,
            ),
            timeout=self.join_timeout,
        )

    def _run_rounds(self, book: _RunBook, schemes, targets, merged, rounds):
        """Fig. 3's measure/merge rounds, over whatever carries them.

        Continues from ``rounds`` completed rounds (non-zero on resume),
        folding reports into ``merged`` and keeping ``book``; returns
        ``(converged, rounds, last round's reports, deadline_stopped)``.
        """
        # A slave's session builds a FaultInjector: load it here, before
        # the first fork, so that forked slaves import nothing themselves.
        import repro.faults.injector  # noqa: F401
        from repro.parallel.chaos import with_frame_faults
        from repro.parallel.transport import (
            LocalPipeTransport,
            TransportCapacityError,
            _InlineTransport,
            collect_replies,
            disconnect_cause,
        )

        owned = self.backend == "serial" or self.transport is None
        if self.backend == "serial":
            transport = _InlineTransport(self.round_timeout)
        else:
            transport = self.transport or LocalPipeTransport("fork")
        transport = with_frame_faults(transport, self.fault_plan)
        if self._tracer is not None:
            transport.attach_tracer(self._tracer)
        transport.start()
        slaves: Dict[int, WorkerEndpoint] = {}
        reports: List[SlaveReport] = []
        # A checkpoint taken on the converged round resumes as a no-op.
        converged = rounds > 0 and self._all_converged(merged, targets)
        measure_started = transport._now()
        deadline_stopped = False
        dead_this_round: List[int] = []

        def lose(slave_id: int, cause: str) -> None:
            """Record a death; the round's quota stays owed to a replacement."""
            book.causes[slave_id] = cause
            dead_this_round.append(slave_id)
            self._trace_event(
                "dead",
                component="slave",
                slave=slave_id,
                round=rounds,
                cause=cause,
                generation=book.slaves[slave_id].generation,
            )

        try:
            # A fresh run's work logs are empty; a resumed slave replays
            # its log and sends a baseline report, which must land
            # exactly on the checkpoint state.
            for slave_id, slave in book.slaves.items():
                if slave_id not in book.causes:
                    slaves[slave_id] = self._spawn_slave(
                        transport, slave_id, slave.generation, slave.seed,
                        schemes, replay=slave.chunks, round_offset=rounds,
                    )
            replayed = [i for i in sorted(slaves) if book.slaves[i].chunks]
            deadline = None
            if replayed and self.round_timeout is not None:
                deadline = transport._now() + self.round_timeout * max(
                    len(book.slaves[i].chunks) for i in replayed
                )
            outstanding = {i: (slaves[i], deadline) for i in replayed}
            while outstanding:
                for slave_id, baseline, cause in collect_replies(
                    transport, outstanding, CAUSE_PIPE_CLOSED
                ):
                    del outstanding[slave_id]
                    if cause is not None:
                        raise ParallelError(
                            f"slave {slave_id} is gone: died during "
                            f"resume replay ({cause})"
                        )
                    slave = book.slaves[slave_id]
                    expected = (slave.events_processed, slave.total_accepted)
                    found = (baseline.events_processed, baseline.total_accepted)
                    if found != expected:
                        raise ParallelError(
                            f"resume replay diverged for slave {slave_id}: "
                            f"expected (events, accepted) = {expected}, "
                            f"replay landed on {found}; the factory or its "
                            "workload is not deterministic in the seed"
                        )
            while rounds < self.max_rounds and not converged:
                if self._deadline_exceeded(
                    transport._now() - measure_started, rounds
                ):
                    deadline_stopped = True
                    break
                rounds += 1
                chunk = self._round_chunk(rounds)
                self._trace_scheduled_faults(rounds)
                dead_this_round.clear()
                sent: List[int] = []
                for slave_id in sorted(slaves):
                    quota = book.command(slave_id, chunk)
                    try:
                        slaves[slave_id].send(("chunk", quota))
                        sent.append(slave_id)
                    except (BrokenPipeError, OSError) as error:
                        lose(slave_id, disconnect_cause(
                            error, f"{CAUSE_SEND_FAILED}: {error}"
                        ))
                deadline = (
                    transport._now() + self.round_timeout
                    if self.round_timeout is not None
                    else None
                )
                outstanding = {
                    slave_id: (slaves[slave_id], deadline)
                    for slave_id in sent
                }
                reports = []
                # Every outstanding slave shares the round deadline and
                # is waited on at once: a single hung slave must not
                # consume the others' share of it, and any report that
                # arrives within the round window counts, whatever the
                # arrival order.
                received: Dict[int, object] = {}
                while outstanding:
                    for slave_id, report, cause in collect_replies(
                        transport, outstanding, CAUSE_PIPE_CLOSED
                    ):
                        del outstanding[slave_id]
                        if cause is not None:
                            lose(slave_id, cause)
                        else:
                            received[slave_id] = report
                # Validate and merge in slave-id order regardless of
                # arrival order: float accumulation is not associative,
                # and merged digests must stay bit-identical run-to-run
                # and backend-to-backend.
                for slave_id in sorted(received):
                    report = received[slave_id]
                    problem = self._report_problem(report, slave_id, schemes)
                    if problem is not None:
                        lose(slave_id, f"{CAUSE_CORRUPT_PAYLOAD}: {problem}")
                        continue
                    reports.append(report)
                    book.on_reported(slave_id, report)
                for slave_id in dead_this_round:
                    endpoint = slaves.pop(slave_id)
                    endpoint.close()
                    transport.reap(endpoint)
                self._trace_round(rounds, reports)
                self._merge_round(merged, reports, rounds)
                converged = self._all_converged(merged, targets)
                if self._progress is not None:
                    self._progress.parallel_update(rounds, merged, targets)
                if not converged:
                    for slave_id in self._respawn_candidates(book):
                        generation = book.slaves[slave_id].generation + 1
                        seed = derive_seed(
                            self.master_seed, slave_id, generation
                        )
                        delay = self.respawn.delay(
                            generation, jitter_seed=seed
                        )
                        if delay > 0.0:
                            # Round-synchronous barrier: all reports for
                            # this round are already merged, so the wait
                            # delays the next round start uniformly; it
                            # never stalls an individual slave's recv.
                            transport.wait((), timeout=delay)
                        try:
                            endpoint = self._spawn_slave(
                                transport, slave_id, generation, seed,
                                schemes, round_offset=rounds,
                            )
                        except TransportCapacityError:
                            # No agent slot free: the book is untouched,
                            # so the slave stays dead with its cause and
                            # its restart budget, and remains a respawn
                            # candidate for the next round.
                            self._trace_event(
                                "respawn_no_capacity",
                                slave=slave_id,
                                round=rounds,
                            )
                            continue
                        book.respawn(slave_id)
                        slaves[slave_id] = endpoint
                        self._trace_event(
                            "respawn",
                            slave=slave_id,
                            round=rounds,
                            generation=generation,
                            seed=seed,
                            backoff=delay,
                        )
                self._enforce_fleet(len(slaves), rounds)
                self._maybe_checkpoint(book, schemes, targets, merged, rounds)
        finally:
            transport.shutdown(
                [slaves[i] for i in sorted(slaves)]
            )
            if owned:
                transport.close()
        return converged, rounds, reports, deadline_stopped
