"""Probes: turning continuous state into metric observation streams.

The statistics package consumes discrete observations, but several of
the paper's output metrics are *state*, not events: server power draw,
utilization, queue depth, capping level.  BigHouse observes these by
sampling at epochs (e.g. the power-capping level is observed every
budgeting epoch).  :class:`PeriodicProbe` generalizes that: evaluate a
callable every ``period`` simulated seconds and feed the value to a
metric.  :class:`CompletionProbe` does the same per job completion for
derived per-job quantities (slowdown, per-stage latency, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.engine.simulation import Simulation

if TYPE_CHECKING:  # the datacenter imports the engine package
    from repro.datacenter.server import Server


class PeriodicProbe:
    """Sample ``reader()`` every ``period`` seconds into a metric.

    Parameters
    ----------
    reader:
        Zero-argument callable returning the current value, or ``None``
        for "no sample this epoch" (dropped).
    record:
        Sink, e.g. ``lambda v: experiment.record("power", v)``.
    period:
        Sampling interval in simulated seconds.
    """

    def __init__(
        self,
        reader: Callable[[], Optional[float]],
        record: Callable[[float], None],
        period: float,
    ):
        if period <= 0:
            raise ValueError(f"period must be > 0, got {period}")
        self.reader = reader
        self.record = record
        self.period = float(period)
        self.samples_taken = 0
        self.sim: Optional[Simulation] = None

    def bind(self, sim: Simulation) -> None:
        """Start sampling."""
        if self.sim is not None:
            raise RuntimeError("probe already bound")
        self.sim = sim
        sim.schedule_periodic(self.period, self._tick)

    def _tick(self) -> None:
        value = self.reader()
        if value is None:
            return
        self.samples_taken += 1
        self.record(float(value))


class CompletionProbe:
    """Feed a per-job derived quantity to a metric on every completion.

    ``extractor(job, server)`` computes the observation; returning
    ``None`` skips that job (e.g. only sample jobs that waited).
    """

    def __init__(
        self,
        station,
        extractor: Callable[..., Optional[float]],
        record: Callable[[float], None],
    ):
        self.extractor = extractor
        self.record = record
        self.samples_taken = 0
        station.on_complete(self._on_complete)

    def _on_complete(self, job, server) -> None:
        value = self.extractor(job, server)
        if value is None:
            return
        self.samples_taken += 1
        self.record(float(value))


def slowdown(job, server: Server) -> float:
    """Per-job slowdown: response time over (ideal) service demand.

    A classic fairness metric; 1.0 means the job never queued and ran at
    full speed.
    """
    if job.size is None or job.size <= 0:
        return 1.0
    return job.response_time / job.size
