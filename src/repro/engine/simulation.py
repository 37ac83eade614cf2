"""The simulation clock + event loop, separated from experiment policy.

:class:`Simulation` knows how to advance virtual time and dispatch events;
it knows nothing about convergence, workloads, or servers.  The
:class:`~repro.engine.experiment.Experiment` layer composes it with the
statistics package.

:meth:`Simulation.run` is the hottest loop in the codebase — every
simulated event passes through it.  It therefore binds attribute lookups
to locals, hoists the ``until``/``stop_when``/``max_events`` decisions
out of the per-event path (the horizon is enforced by popping eagerly
and requeueing the first overshooting event instead of peeking the heap
before every pop), and batches the ``events_processed`` counter update.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from typing import Callable, Optional

import numpy as np

from repro.distributions.prefetch import DEFAULT_BLOCK, PrefetchSampler
from repro.engine.events import (
    EV_STATE,
    PENDING,
    Event,
    EventQueue,
    SimulationError,
)

#: Dispatched events between two ``engine/events`` trace counters.
_TRACE_EVERY = 4096


def seeded_rng(seed) -> np.random.Generator:
    """The sanctioned constructor for a component-local random stream.

    This module is the seed-plumbing whitelist enforced by simlint's
    ``global-rng`` rule: all other library code must receive a
    ``numpy.random.Generator`` (usually via :meth:`Simulation.spawn_rng`)
    or derive one from an explicit seed through this function — never
    construct ``np.random.default_rng`` ad hoc, and never rely on global
    module-level randomness.  ``seed`` is required on purpose: an
    unseeded stream cannot be reproduced.
    """
    if seed is None:
        raise SimulationError(
            "seeded_rng requires an explicit seed; unseeded streams are "
            "not reproducible"
        )
    return np.random.default_rng(seed)


class Simulation:
    """Virtual clock, event queue, and deterministic RNG streams.

    ``prefetch`` is the sampling mode of every sampler built through
    :meth:`sampler`: blocks of ``DEFAULT_BLOCK`` draws when True, one
    draw at a time when False (the A/B "off" configuration).
    """

    def __init__(self, seed: int = 0, prefetch: bool = True):
        self.now: float = 0.0
        #: The root seed, retained so checkpoints and seed-lineage
        #: audits can identify this clock's stream family without
        #: reaching into the SeedSequence internals.
        self.seed = seed
        self.prefetch = prefetch
        self.events = EventQueue()
        self.events_processed: int = 0
        self._seed_sequence = np.random.SeedSequence(seed)
        self._periodics: dict[int, Event] = {}
        self._periodic_counter = 0
        self._probe = None
        self._tracer = None

    # -- structured tracing (repro.observability) ----------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.observability.Tracer` to the event loop.

        While attached, :meth:`run` emits an ``engine/events`` counter
        every 4096 dispatched events carrying the cumulative
        event count, the queue depth, and simulated time.  Rates
        (events/sec) are derived post-hoc from consecutive records —
        the engine itself never reads a wall clock.  Detach with
        ``attach_tracer(None)``; when detached the loop carries no
        tracer state at all.
        """
        self._tracer = tracer

    @property
    def tracer(self):
        """The attached structured tracer, or None when untraced."""
        return self._tracer

    # -- determinism sanitizer ----------------------------------------------

    def enable_sanitizer(self):
        """Attach a determinism probe (see :mod:`repro.analysis.sanitizer`).

        From then on every dispatched event's timestamp is folded into
        the probe's event digest, and every sampler built afterwards by
        :meth:`sampler` records its RNG block boundaries and runs in
        verify mode (per-draw replay of every block).  Must be attached before components bind — samplers
        capture the probe when they are built.
        Returns the probe.
        """
        # Deferred import: the analysis package depends on the engine,
        # not the other way around.
        from repro.analysis.sanitizer import DeterminismProbe

        self._probe = probe = DeterminismProbe()
        return probe

    @property
    def probe(self):
        """The attached determinism probe, or None when not sanitizing."""
        return self._probe

    # -- randomness --------------------------------------------------------

    def spawn_rng(self) -> np.random.Generator:
        """A fresh, independent random stream for one component.

        Every component (arrival process, service draws, policy noise)
        gets its own stream so adding a component never perturbs the
        draws of existing components — the standard variance-reduction
        discipline for queuing simulation.
        """
        (child,) = self._seed_sequence.spawn(1)
        return np.random.default_rng(child)

    def sampler(self, distribution) -> PrefetchSampler:
        """Single draws of ``distribution`` from a fresh stream.

        The one place a component's draws are wired: the stream comes
        from :meth:`spawn_rng`, the block size from :attr:`prefetch`,
        and the attached determinism probe (if any) records and
        verifies every block.
        """
        return PrefetchSampler(
            distribution,
            self.spawn_rng(),
            DEFAULT_BLOCK if self.prefetch else 1,
            probe=self._probe,
        )

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past: {time} < now {self.now}"
            )
        return self.events.schedule(time, callback)

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` after a non-negative ``delay``.

        The queue insert is inlined (rather than delegated to
        ``events.schedule``): this is called once or twice per simulated
        event, and the extra frame is measurable at millions of events.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        events = self.events
        event = [self.now + delay, next(events._counter), callback, PENDING]
        heappush(events._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event (used for completion re-scheduling)."""
        self.events.cancel(event)

    def schedule_periodic(self, period: float, callback: Callable[[], None]) -> int:
        """Fire ``callback`` every ``period`` time units until cancelled.

        Used by the power-capping budgeting epoch ("budgets are calculated
        every second", Section 4.1).  Returns a task id accepted by
        :meth:`cancel_periodic`.  Only the most recent tick's handle is
        retained per task, so arbitrarily long runs hold O(1) state per
        periodic task.
        """
        if period <= 0:
            raise SimulationError(f"period must be > 0: {period}")
        self._periodic_counter += 1
        task_id = self._periodic_counter
        periodics = self._periodics

        def tick() -> None:
            callback()
            # Re-arm only if the task survived its own callback (the
            # callback may call cancel_periodic on itself).
            if task_id in periodics:
                periodics[task_id] = self.schedule_in(period, tick)

        periodics[task_id] = self.schedule_in(period, tick)
        return task_id

    def cancel_periodic(self, task_id: int) -> None:
        """Stop a periodic task created by :meth:`schedule_periodic`."""
        handle = self._periodics.pop(task_id, None)
        if handle is None:
            raise SimulationError(f"unknown periodic task: {task_id}")
        if handle[EV_STATE] == PENDING:
            self.events.cancel(handle)

    # -- event loop ---------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        stop_check_interval: int = 256,
    ) -> None:
        """Run the loop until a bound is reached.

        ``stop_when`` is polled every ``stop_check_interval`` events; the
        Experiment layer passes the statistics-convergence check here so
        that the convergence test itself does not dominate runtime.

        With ``until`` set, the clock always lands exactly on ``until``
        when the horizon is reached (whether the queue ran dry or the
        next event lies beyond it).
        """
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run to a horizon in the past: {until} < now {self.now}"
            )
        events = self.events
        heap = events._heap
        pop = heappop
        # Sanitizer hook: one bound method when probing, else None so the
        # per-event cost is a single local test.
        record = self._probe.record_time if self._probe is not None else None
        budget = math.inf if max_events is None else max_events
        # A None horizon folds to +inf so the per-event test is a single
        # float compare; the queue pop is inlined for the same reason.
        horizon = math.inf if until is None else until
        # With no stop_when, the check threshold is never reached.
        check_every = stop_check_interval if stop_when is not None else math.inf
        next_check = check_every
        # Structured tracing piggybacks on the same threshold shape.  An
        # untraced run folds the emit threshold to an unreachable *int*
        # (not +inf: int-vs-int compares are cheaper in CPython than
        # int-vs-float, and this test runs once per event), so the
        # disabled cost is one integer compare that never fires.
        tracer = self._tracer
        emit_every = _TRACE_EVERY if tracer is not None else sys.maxsize
        next_emit = emit_every
        processed = 0
        now = self.now
        # No per-event monotonicity test: schedule_at/schedule_in refuse
        # past times, heap pops are globally non-decreasing, and events
        # inserted from a callback carry time >= the current event's —
        # so popped times cannot regress.
        try:
            while processed < budget:
                # -- inline EventQueue.pop (skipping cancelled entries) --
                while heap:
                    event = pop(heap)
                    if event[3] == 0:  # PENDING
                        break
                    events._dead -= 1
                else:
                    if until is not None:
                        now = until
                    return
                time = event[0]
                if time > horizon:
                    # Overshot: the event stays pending (never marked
                    # fired), the clock lands exactly on the horizon.
                    heappush(heap, event)
                    now = until
                    return
                event[3] = 2  # FIRED
                self.now = now = time
                if record is not None:
                    record(time)
                event[2]()
                processed += 1
                if processed >= next_emit:
                    next_emit = processed + emit_every
                    if tracer is not None:
                        tracer.counter(
                            "events",
                            self.events_processed + processed,
                            component="engine",
                            sim_time=now,
                            queue_depth=len(heap),
                            cancelled_pending=events._dead,
                        )
                if processed >= next_check:
                    next_check = processed + check_every
                    if stop_when():
                        return
        finally:
            self.now = now
            self.events_processed += processed
            if tracer is not None and processed:
                tracer.counter(
                    "events",
                    self.events_processed,
                    component="engine",
                    sim_time=now,
                    queue_depth=len(heap),
                    run_exit=True,
                )
