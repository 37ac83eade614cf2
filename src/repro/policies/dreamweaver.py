"""DreamWeaver: scheduling for idleness (Section 3.2).

"The essence of the scheduling mechanism is to preempt execution and
enter deep sleep if there are fewer outstanding tasks than cores.
However, if any task is delayed by more than a pre-specified threshold,
the system wakes up and execution resumes even if some [cores] remain
idle.  In essence, the technique trades per-request latency to create
opportunities for deep sleep."

Mechanics as implemented here:

- whenever the number of outstanding tasks drops below the core count
  (and no outstanding task has exhausted its delay budget), the whole
  server is paused — in-flight tasks stop progressing;
- each task carries a *delay budget* equal to the threshold; budget is
  consumed only while the server naps (service time is never counted);
- the server wakes when (a) an outstanding task's budget runs out, or
  (b) outstanding tasks reach the core count — whichever first; waking
  takes ``wake_transition`` seconds (PowerNap-style);
- once awake it runs until the nap condition re-arms.  A task that
  exhausted its budget blocks re-napping until it completes, which is
  what prevents wake/nap thrashing at the threshold boundary.

The tuning knob is ``delay_threshold``: sweeping it traces the idle-time
versus 99th-percentile-latency trade-off curve of Fig. 6.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional

from repro.datacenter.job import Job
from repro.datacenter.server import Server
from repro.engine.simulation import Simulation


class DreamWeaverError(RuntimeError):
    """Raised on invalid DreamWeaver configuration or state."""


class PolicyState(enum.Enum):
    """Power state of the managed server."""

    AWAKE = "awake"
    NAPPING = "napping"
    WAKING = "waking"


class DreamWeaver:
    """Idleness-coalescing scheduler wrapped around one server.

    Parameters
    ----------
    server:
        The many-core server to manage (not yet bound).
    delay_threshold:
        Maximum time any single task may spend delayed by napping before
        the system is forced awake.  ``0`` reduces to PowerNap.
    wake_transition:
        Deep-sleep exit latency (the PowerNap paper's ~1 ms scale).
    nap_transition:
        Deep-sleep entry latency; modeled as time at the start of a nap
        during which the system is *not* counted as usefully idle.
    min_benefit_factor:
        Naps expected to last less than ``min_benefit_factor *
        (nap_transition + wake_transition)`` are skipped.  Without this
        gate the policy thrashes at large thresholds: it naps with
        ``cores - 1`` outstanding tasks, arrivals refill the cores within
        a fraction of the transition cost, and the system burns
        transitions for no idleness.  The expected nap length is the
        smaller of the tightest remaining delay budget and the estimated
        time for arrivals to fill the cores (from an online inter-arrival
        estimate).
    """

    def __init__(
        self,
        server: Server,
        delay_threshold: float,
        wake_transition: float = 1e-3,
        nap_transition: float = 1e-3,
        min_benefit_factor: float = 1.0,
    ):
        if delay_threshold < 0:
            raise DreamWeaverError(
                f"delay_threshold must be >= 0, got {delay_threshold}"
            )
        if wake_transition < 0 or nap_transition < 0:
            raise DreamWeaverError("transition times must be >= 0")
        if min_benefit_factor < 0:
            raise DreamWeaverError(
                f"min_benefit_factor must be >= 0, got {min_benefit_factor}"
            )
        self.server = server
        self.delay_threshold = float(delay_threshold)
        self.wake_transition = float(wake_transition)
        self.nap_transition = float(nap_transition)
        self.min_benefit_factor = float(min_benefit_factor)
        # Online inter-arrival estimate for the nap-benefit gate.
        self._arrivals_seen = 0
        self._first_arrival: Optional[float] = None
        self._last_arrival: Optional[float] = None

        self.state = PolicyState.AWAKE
        self.sim: Optional[Simulation] = None
        self._outstanding: Dict[int, Job] = {}
        #: Start of the current nap (fixed until wake; for idle accounting).
        self._nap_started: Optional[float] = None
        #: Time up to which nap delay has been charged to outstanding jobs.
        self._accrual_marker: Optional[float] = None
        #: Instant from which the current nap counts as useful deep sleep.
        self._nap_useful_from: float = 0.0
        self._wake_timer = None
        self.nap_seconds = 0.0
        self.naps_taken = 0
        self.wakes_by_timeout = 0
        self.wakes_by_load = 0

        server.on_arrival(self._handle_arrival)
        server.on_complete(self._handle_complete)

    # -- wiring -------------------------------------------------------------

    def bind(self, sim: Simulation) -> None:
        """Bind the server, then nap immediately (system starts empty)."""
        self.sim = sim
        self.server.bind(sim)
        self._maybe_nap()

    # Allow the policy object itself to be used as an experiment target
    # component boundary is the server.

    # -- delay-budget bookkeeping ---------------------------------------------

    def _remaining_budget(self, job: Job) -> float:
        return self.delay_threshold - job.delay_used

    def _accrue_nap_delays(self, until: float) -> None:
        """Charge nap time since the last charge against outstanding tasks."""
        if self._accrual_marker is None:
            return
        for job in self._outstanding.values():
            accrual_start = max(self._accrual_marker, job.arrival_time)
            if until > accrual_start:
                job.delay_used += until - accrual_start
        # Advance the marker so a later charge never double-counts.
        self._accrual_marker = until

    # -- nap / wake decisions --------------------------------------------------

    def _mean_interarrival(self) -> float:
        """Online estimate of the mean inter-arrival gap (inf until known)."""
        if self._arrivals_seen < 2:
            return math.inf
        span = self._last_arrival - self._first_arrival
        if span <= 0:
            return 0.0
        return span / (self._arrivals_seen - 1)

    def _expected_nap(self) -> float:
        """Expected length of a nap started now: the smaller of the
        tightest remaining delay budget and the time for arrivals to
        refill the cores."""
        budget = math.inf
        if self._outstanding:
            budget = min(
                self._remaining_budget(job)
                for job in self._outstanding.values()
            )
        slots = self.server.cores - len(self._outstanding)
        fill_time = slots * self._mean_interarrival()
        return min(budget, fill_time)

    def _nap_allowed(self) -> bool:
        if self.state is not PolicyState.AWAKE:
            return False
        if len(self._outstanding) >= self.server.cores:
            return False
        if any(
            self._remaining_budget(job) <= 0.0
            for job in self._outstanding.values()
        ):
            return False
        min_benefit = self.min_benefit_factor * (
            self.nap_transition + self.wake_transition
        )
        return self._expected_nap() >= min_benefit

    def _maybe_nap(self) -> None:
        if not self._nap_allowed():
            return
        self.state = PolicyState.NAPPING
        self.naps_taken += 1
        self._nap_started = self.sim.now
        self._accrual_marker = self.sim.now
        self._nap_useful_from = self.sim.now + self.nap_transition
        self.server.pause()
        self._arm_wake_timer()

    def _arm_wake_timer(self) -> None:
        self._cancel_wake_timer()
        if not self._outstanding:
            return  # nothing pending: sleep until an arrival wakes us
        budget = min(
            self._remaining_budget(job) for job in self._outstanding.values()
        )
        budget = max(0.0, budget)
        if math.isinf(budget):
            return
        self._wake_timer = self.sim.schedule_in(budget, self._timeout_wake)

    def _cancel_wake_timer(self) -> None:
        if self._wake_timer is not None:
            self.sim.cancel(self._wake_timer)
            self._wake_timer = None

    def _timeout_wake(self) -> None:
        self._wake_timer = None
        self.wakes_by_timeout += 1
        self._initiate_wake()

    def _initiate_wake(self) -> None:
        if self.state is not PolicyState.NAPPING:
            return
        now = self.sim.now
        # Count useful (deep-sleep) idle time, net of the entry transition.
        useful_from = min(max(self._nap_useful_from, self._nap_started), now)
        self.nap_seconds += max(0.0, now - useful_from)
        self._accrue_nap_delays(now)
        self._nap_started = None
        self._accrual_marker = None
        self._cancel_wake_timer()
        self.state = PolicyState.WAKING
        self.sim.schedule_in(self.wake_transition, self._finish_wake)

    def _finish_wake(self) -> None:
        # Jobs kept waiting through the wake transition also consumed budget.
        for job in self._outstanding.values():
            start = max(job.arrival_time, self.sim.now - self.wake_transition)
            job.delay_used += max(0.0, self.sim.now - start)
        self.state = PolicyState.AWAKE
        self.server.resume()
        # Load may have drained meaning we could nap again right away only
        # if budgets allow; _nap_allowed guards thrashing.
        self._maybe_nap()

    # -- server hooks --------------------------------------------------------------

    def _handle_arrival(self, job: Job, server: Server) -> None:
        self._arrivals_seen += 1
        if self._first_arrival is None:
            self._first_arrival = self.sim.now
        self._last_arrival = self.sim.now
        self._outstanding[job.job_id] = job
        if self.state is PolicyState.NAPPING:
            self._accrue_nap_delays(self.sim.now)
            if (
                len(self._outstanding) >= server.cores
                or self._remaining_budget(job) <= 0.0
            ):
                self.wakes_by_load += 1
                self._initiate_wake()
            else:
                self._arm_wake_timer()

    def _handle_complete(self, job: Job, server: Server) -> None:
        self._outstanding.pop(job.job_id, None)
        self._maybe_nap()

    # -- reporting ---------------------------------------------------------------------

    def idle_fraction(self) -> float:
        """Fraction of elapsed simulation time spent in useful deep sleep."""
        now = self.sim.now if self.sim is not None else 0.0
        if now <= 0:
            return 0.0
        total = self.nap_seconds
        if self.state is PolicyState.NAPPING:
            useful_from = min(max(self._nap_useful_from, self._nap_started), now)
            total += max(0.0, now - useful_from)
        return total / now
