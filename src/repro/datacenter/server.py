"""The server model: k cores, a queue, speed scaling, pause/resume.

This is the workhorse of the queuing network.  Beyond a textbook G/G/k
station it supports the two mechanisms the paper's case studies hinge on:

- **run-time speed changes** (:meth:`Server.set_speed`) — the power
  capping example re-scales every server's DVFS setting each one-second
  epoch (Section 4.1), which requires re-scheduling the completion events
  of every in-flight job against its remaining work;
- **whole-server pause/resume** (:meth:`Server.pause` /
  :meth:`Server.resume`) — DreamWeaver preempts execution and naps the
  entire server when there are fewer outstanding tasks than cores
  (Section 3.2).

Completion, arrival, and dispatch hooks let metrics, forwarding (multi-
tier pipelines), and scheduling policies attach from outside without
subclassing.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from typing import Callable, Optional

from repro.datacenter.disciplines import FCFSQueue, QueueingDiscipline
from repro.datacenter.job import Job
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.events import PENDING
from repro.engine.simulation import Simulation


class ServerError(RuntimeError):
    """Raised on invalid server operations (bad speed, double bind, ...)."""


class Server:
    """A k-core server with a queueing discipline and mutable speed.

    Parameters
    ----------
    cores:
        Number of cores; each serves one job at a time.
    speed:
        Initial service-rate multiplier (1.0 = nominal).  A job of size
        ``s`` takes ``s / speed`` seconds of wall clock while running.
    discipline:
        Queueing discipline instance; defaults to a fresh FCFS queue.
    service_distribution:
        If set, jobs arriving with ``size is None`` draw their demand
        from this distribution (used for multi-tier stages and for
        sources that only generate arrivals).
    forward_to:
        Optional next stage; completed jobs are re-injected there with
        ``size`` reset so the stage draws its own demand.
    name:
        Diagnostic label.
    """

    def __init__(
        self,
        cores: int = 1,
        speed: float = 1.0,
        discipline: Optional[QueueingDiscipline] = None,
        service_distribution=None,
        forward_to: Optional["Server"] = None,
        name: str = "server",
    ):
        if cores < 1:
            raise ServerError(f"cores must be >= 1, got {cores}")
        if speed <= 0:
            raise ServerError(f"speed must be > 0, got {speed}")
        self.cores = int(cores)
        self.speed = float(speed)
        self.queue = discipline if discipline is not None else FCFSQueue()
        self.service_distribution = service_distribution
        self.forward_to = forward_to
        self.name = name

        self.sim: Optional[Simulation] = None
        self._service_rng = None
        self._next_size: Optional[PrefetchSampler] = None
        self.paused = False
        self._running: dict[int, Job] = {}
        self.completed_jobs = 0
        self._traced = False
        self._complete_label = ""
        self._heap = None
        self._seq = None
        # Direct deque access when the discipline is exactly FCFS (the
        # overwhelmingly common case): skips two method frames per
        # queued job.  None for any other/subclassed discipline.
        self._fcfs = (
            self.queue._queue if type(self.queue) is FCFSQueue else None
        )

        self._complete_listeners: list[Callable[[Job, "Server"], None]] = []
        self._arrival_listeners: list[Callable[[Job, "Server"], None]] = []
        self._occupancy_listeners: list[Callable[["Server"], None]] = []

        # Time-weighted busy-core accounting for utilization/power models.
        self._busy_integral = 0.0
        self._busy_marker_integral = 0.0
        self._busy_marker_time = 0.0
        self._last_busy_update = 0.0
        # Fully-idle time accounting (for idleness/power studies).
        self._idle_integral = 0.0
        self._pause_integral = 0.0

    # -- wiring -----------------------------------------------------------

    def bind(self, sim: Simulation) -> None:
        """Attach to a simulation; idempotent, transitively binds stages."""
        if self.sim is sim:
            return
        if self.sim is not None:
            raise ServerError(f"{self.name}: already bound to another simulation")
        self.sim = sim
        self._last_busy_update = sim.now
        self._busy_marker_time = sim.now
        self._traced = sim.tracing
        # Captured once: _start pushes completion records straight onto
        # the heap.  Safe because heap compaction is in-place.
        self._heap = sim.events._heap
        self._seq = sim.events._counter
        if self.service_distribution is not None:
            self._service_rng = sim.spawn_rng()
            self._next_size = PrefetchSampler(
                self.service_distribution, self._service_rng, probe=sim.probe
            )
        if self.forward_to is not None:
            self.forward_to.bind(sim)

    def on_complete(self, listener: Callable[[Job, "Server"], None]) -> None:
        """Call ``listener(job, server)`` whenever a job finishes here."""
        self._complete_listeners.append(listener)

    def on_arrival(self, listener: Callable[[Job, "Server"], None]) -> None:
        """Call ``listener(job, server)`` on every arrival (pre-dispatch)."""
        self._arrival_listeners.append(listener)

    def on_occupancy_change(self, listener: Callable[["Server"], None]) -> None:
        """Call ``listener(server)`` whenever the busy-core count changes
        (power meters integrate utilization off this hook)."""
        self._occupancy_listeners.append(listener)

    # -- state inspection ---------------------------------------------------

    @property
    def busy_cores(self) -> int:
        """Cores currently serving a job."""
        return len(self._running)

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not in service)."""
        return len(self.queue)

    @property
    def outstanding(self) -> int:
        """Jobs in the system: queued + in service."""
        return self.queue_length + self.busy_cores

    @property
    def is_idle(self) -> bool:
        """True when no job is queued or running."""
        return self.outstanding == 0

    def utilization_now(self) -> float:
        """Instantaneous busy-core fraction."""
        return self.busy_cores / self.cores

    # -- busy-time integrals (power & capping inputs) -------------------------

    def _update_busy_integral(self) -> None:
        now = self.sim.now
        dt = now - self._last_busy_update
        if dt > 0:
            busy = len(self._running)
            self._busy_integral += dt * busy
            if busy == 0:
                self._idle_integral += dt
                if self.paused:
                    self._pause_integral += dt
            elif self.paused:
                # Paused with jobs on cores: cores hold state but do no work.
                self._pause_integral += dt
        self._last_busy_update = now

    def utilization_since_marker(self) -> float:
        """Average busy fraction since the last call; resets the marker.

        This is the per-epoch utilization the power capping budgeter reads
        ("every server gets a budget in proportion to its utilization in
        the previous budgeting interval", Section 4.1).
        """
        self._update_busy_integral()
        now = self.sim.now
        window = now - self._busy_marker_time
        if window <= 0:
            return 0.0
        used = self._busy_integral - self._busy_marker_integral
        self._busy_marker_integral = self._busy_integral
        self._busy_marker_time = now
        # Guard float accumulation drift: utilization is a fraction.
        return min(1.0, max(0.0, used / (window * self.cores)))

    def busy_core_seconds(self) -> float:
        """Total core-seconds of service delivered so far."""
        self._update_busy_integral()
        return self._busy_integral

    def idle_seconds(self) -> float:
        """Total time with zero busy cores so far."""
        self._update_busy_integral()
        return self._idle_integral

    def paused_seconds(self) -> float:
        """Total time spent paused (napping) so far."""
        self._update_busy_integral()
        return self._pause_integral

    # -- job flow --------------------------------------------------------------

    def arrive(self, job: Job) -> None:
        """Accept a job: dispatch to a free core or enqueue."""
        if self.sim is None:
            raise ServerError(f"{self.name}: not bound to a simulation")
        if job.arrival_time is None:
            job.arrival_time = self.sim.now
        if job.size is None:
            if self._next_size is None:
                raise ServerError(
                    f"{self.name}: job #{job.job_id} has no size and server "
                    "has no service distribution"
                )
            job.size = self._next_size()
        if job.remaining is None:
            job.remaining = job.size
        if self._arrival_listeners:
            for listener in self._arrival_listeners:
                listener(job, self)
        if not self.paused and len(self._running) < self.cores:
            self._start(job)
        elif self._fcfs is not None:
            self._fcfs.append(job)
        else:
            self.queue.push(job)
        if self._occupancy_listeners:
            self._notify_occupancy()

    def _start(self, job: Job) -> None:
        # Runs once per served job: the completion-event push is inlined
        # (record layout [time, seq, callback, label, state]) and the
        # callback is a partial, which dispatches at C level — one Python
        # frame fewer per completion than a lambda trampoline.
        now = self.sim.now
        if job.start_time is None:
            job.start_time = now
        # Exact != is correct: _last_busy_update is assigned from this
        # same clock, so equality means "already integrated at this time".
        if now != self._last_busy_update:  # simlint: disable=float-time-eq
            self._update_busy_integral()
        self._running[job.job_id] = job
        job._last_progress = now
        event = [
            now + job.remaining / self.speed,
            next(self._seq),
            partial(self._complete, job),
            f"{self.name}:complete#{job.job_id}" if self._traced else "",
            PENDING,
        ]
        heappush(self._heap, event)
        job._completion_event = event

    def _schedule_completion(self, job: Job) -> None:
        """Cold-path completion scheduling (set_speed / resume)."""
        delay = job.remaining / self.speed
        label = (
            f"{self.name}:complete#{job.job_id}" if self._traced else ""
        )
        job._completion_event = self.sim.schedule_in(
            delay, partial(self._complete, job), label
        )

    def _sync_progress(self, job: Job) -> None:
        """Bank the work done since the job's last progress timestamp."""
        now = self.sim.now
        if self.paused:
            # No work happens while paused; just advance the timestamp.
            job._last_progress = now
            return
        elapsed = now - job._last_progress
        if elapsed > 0:
            job.remaining = max(0.0, job.remaining - elapsed * self.speed)
        job._last_progress = now

    def _complete(self, job: Job) -> None:
        job._completion_event = None
        job.remaining = 0.0
        now = self.sim.now
        # Integrate the elapsed interval at the pre-completion core count
        # before dropping the job, or busy time is undercounted.
        if now != self._last_busy_update:  # simlint: disable=float-time-eq
            self._update_busy_integral()
        del self._running[job.job_id]
        job.finish_time = now
        self.completed_jobs += 1
        for listener in self._complete_listeners:
            listener(job, self)
        if self.forward_to is not None:
            self._forward(job)
        if not self.paused and self.queue:
            self._dispatch_from_queue()
        if self._occupancy_listeners:
            self._notify_occupancy()

    def _forward(self, job: Job) -> None:
        """Send a completed job to the next pipeline stage."""
        job.stages_completed += 1
        job.size = None
        job.remaining = None
        job.finish_time = None
        job.start_time = None
        self.forward_to.arrive(job)

    def cancel(self, job: Job) -> bool:
        """Withdraw a job that has not completed here (replica
        cancellation for cloning policies).

        Returns True if the job was running or queued on this server
        and has been removed; False if it is unknown — typically
        because it already completed.  Cancelling a running job frees
        its core immediately and the queue is re-dispatched.
        """
        if self.sim is None:
            raise ServerError(f"{self.name}: not bound to a simulation")
        if job.job_id in self._running:
            now = self.sim.now
            # Integrate at the pre-cancellation core count first, same
            # as _complete, or busy time is undercounted.
            if now != self._last_busy_update:  # simlint: disable=float-time-eq
                self._update_busy_integral()
            del self._running[job.job_id]
            if job._completion_event is not None:
                self.sim.cancel(job._completion_event)
                job._completion_event = None
            if not self.paused and self.queue:
                self._dispatch_from_queue()
            if self._occupancy_listeners:
                self._notify_occupancy()
            return True
        if self._fcfs is not None:
            try:
                self._fcfs.remove(job)
            except ValueError:
                return False
        elif not self.queue.remove(job):
            return False
        if self._occupancy_listeners:
            self._notify_occupancy()
        return True

    def _dispatch_from_queue(self) -> None:
        fcfs = self._fcfs
        if fcfs is not None:
            while fcfs and len(self._running) < self.cores:
                self._start(fcfs.popleft())
            return
        while len(self._running) < self.cores:
            job = self.queue.pop()
            if job is None:
                return
            self._start(job)

    # -- speed scaling (DVFS) -----------------------------------------------

    def set_speed(self, speed: float) -> None:
        """Change the service-rate multiplier, re-scheduling in-flight jobs."""
        if speed <= 0:
            raise ServerError(f"speed must be > 0, got {speed} (use pause())")
        if speed == self.speed:
            return
        for job in self._running.values():
            self._sync_progress(job)
            if job._completion_event is not None:
                self.sim.cancel(job._completion_event)
                job._completion_event = None
        self.speed = float(speed)
        if not self.paused:
            for job in self._running.values():
                self._schedule_completion(job)

    # -- pause / resume (deep sleep) -------------------------------------------

    def pause(self) -> None:
        """Freeze all service: in-flight jobs stop progressing, the queue
        holds.  Models entry into a full-system idle low-power mode."""
        if self.paused:
            return
        self._update_busy_integral()
        for job in self._running.values():
            self._sync_progress(job)
            if job._completion_event is not None:
                self.sim.cancel(job._completion_event)
                job._completion_event = None
        self.paused = True

    def resume(self) -> None:
        """Wake up: resume in-flight jobs and fill free cores."""
        if not self.paused:
            return
        self._update_busy_integral()
        self.paused = False
        for job in self._running.values():
            job._last_progress = self.sim.now
            self._schedule_completion(job)
        self._dispatch_from_queue()
        self._notify_occupancy()

    def _notify_occupancy(self) -> None:
        if self._occupancy_listeners:
            for listener in self._occupancy_listeners:
                listener(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Server({self.name!r}, cores={self.cores}, speed={self.speed}, "
            f"busy={self.busy_cores}, queued={self.queue_length})"
        )
