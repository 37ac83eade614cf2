"""Time-varying (diurnal) arrival processes.

Data center load is not stationary: the studies BigHouse targets (power
capping, energy proportionality) exist *because* traffic swings through
daily peaks and troughs.  This module adds a non-homogeneous arrival
source driven by a rate profile:

- :class:`RateProfile` — a periodic piecewise-linear multiplier over the
  base arrival rate (e.g. a diurnal curve);
- :func:`diurnal_profile` — the classic sinusoid-like day shape with a
  configurable peak-to-trough ratio;
- :class:`VariableRateSource` — generates arrivals whose *local* rate
  follows the profile, by scaling each drawn inter-arrival gap with the
  instantaneous multiplier (an inversion-free analogue of thinning that
  preserves the gap distribution's shape at every instant).

Caveat (inherited from the paper's stationarity discussion): the
statistics pipeline assumes steady state; with a time-varying rate the
"converged" estimate is a *time-average over the profile's period*, so
warm-up should cover at least one full period.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.datacenter.job import Job
from repro.datacenter.source import _JOB_COUNTER
from repro.distributions.prefetch import PrefetchSampler
from repro.engine.simulation import Simulation
from repro.workloads.workload import Workload, WorkloadError


class RateProfile:
    """Periodic piecewise-linear rate multiplier.

    ``points`` is a sequence of (time, multiplier) knots over one period;
    the profile repeats with ``period`` and interpolates linearly between
    knots (wrapping the last knot to the first).
    """

    def __init__(self, points: Sequence[Tuple[float, float]], period: float):
        if period <= 0:
            raise WorkloadError(f"period must be > 0, got {period}")
        if len(points) < 1:
            raise WorkloadError("profile needs >= 1 knot")
        times = [t for t, _ in points]
        if any(not 0.0 <= t < period for t in times):
            raise WorkloadError("knot times must lie in [0, period)")
        if times != sorted(times):
            raise WorkloadError("knot times must be sorted")
        if any(m <= 0 for _, m in points):
            raise WorkloadError("multipliers must be > 0")
        self.period = float(period)
        # Close the loop: append the first knot one period later.
        self._times = np.array(times + [times[0] + period], dtype=float)
        multipliers = [m for _, m in points]
        self._multipliers = np.array(multipliers + [multipliers[0]], dtype=float)

    def multiplier(self, time: float) -> float:
        """The rate multiplier at absolute time ``time``."""
        phase = time % self.period
        if phase < self._times[0]:
            phase += self.period
        return float(np.interp(phase, self._times, self._multipliers))

    def peak(self) -> float:
        """Largest multiplier anywhere on the profile."""
        return float(self._multipliers.max())

    def mean_multiplier(self) -> float:
        """Time-average multiplier over one period (trapezoidal)."""
        widths = np.diff(self._times)
        mids = (self._multipliers[:-1] + self._multipliers[1:]) / 2.0
        return float((widths * mids).sum() / self.period)


def diurnal_profile(
    peak_to_trough: float = 3.0,
    period: float = 86_400.0,
    knots: int = 24,
    peak_time_fraction: float = 0.58,
) -> RateProfile:
    """A smooth day-shaped profile normalized to peak multiplier 1.0.

    ``peak_to_trough`` is the classic diurnal swing (Google-style traces
    show 2-5x); the peak lands at ``peak_time_fraction`` of the period
    (default mid-afternoon).
    """
    if peak_to_trough < 1.0:
        raise WorkloadError(
            f"peak_to_trough must be >= 1, got {peak_to_trough}"
        )
    if knots < 2:
        raise WorkloadError(f"need >= 2 knots, got {knots}")
    trough = 1.0 / peak_to_trough
    amplitude = (1.0 - trough) / 2.0
    center = (1.0 + trough) / 2.0
    times = np.linspace(0.0, period, knots, endpoint=False)
    phase = 2.0 * np.pi * (times / period - peak_time_fraction)
    multipliers = center + amplitude * np.cos(phase)
    return RateProfile(list(zip(times.tolist(), multipliers.tolist())), period)


class VariableRateSource:
    """Open-loop source whose arrival rate follows a :class:`RateProfile`.

    Each inter-arrival gap is drawn from the workload's distribution and
    divided by the profile multiplier at the draw instant, so the local
    arrival rate is ``base_rate * multiplier(t)`` while the gap
    distribution's shape (its Cv) is preserved at every instant.
    """

    def __init__(
        self,
        workload: Workload,
        profile: RateProfile,
        target,
        max_jobs: Optional[int] = None,
        name: str = "diurnal-source",
    ):
        self.workload = workload
        self.profile = profile
        self.target = target
        self.max_jobs = max_jobs
        self.name = name
        self.generated = 0
        self.sim: Optional[Simulation] = None
        self._next_gap: Optional[PrefetchSampler] = None
        self._next_size: Optional[PrefetchSampler] = None

    def bind(self, sim: Simulation) -> None:
        """Attach and schedule the first arrival."""
        if self.sim is not None:
            raise RuntimeError(f"{self.name}: already bound")
        self.sim = sim
        self._next_gap = sim.sampler(self.workload.interarrival)
        self._next_size = sim.sampler(self.workload.service)
        self.target.bind(sim)
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self.max_jobs is not None and self.generated >= self.max_jobs:
            return
        gap = self._next_gap() / self.profile.multiplier(self.sim.now)
        self.sim.schedule_in(gap, self._emit)

    def _emit(self) -> None:
        job = Job(next(_JOB_COUNTER), size=self._next_size())
        job.arrival_time = self.sim.now
        self.generated += 1
        self.target.arrive(job)
        self._schedule_next()
