"""Utilization-driven DVFS governor (an "ondemand"-style policy).

A small, self-contained example of the kind of power-management policy
BigHouse is designed to evaluate: sample a server's utilization every
epoch and pick the lowest frequency that keeps utilization below a
target, stepping up aggressively on saturation and down conservatively
when there is headroom — the classic Linux ``ondemand`` shape.

Combines with :class:`repro.power.dvfs.ServerDVFS` (for the Eq. 5/6
power/performance coupling) and an :class:`repro.power.meter.EnergyMeter`
to study the latency/energy trade-off of governor tuning.
"""

from __future__ import annotations

from typing import Optional

from repro.engine.simulation import Simulation
from repro.power.dvfs import ServerDVFS
from repro.power.models import PowerModelError


class OndemandGovernor:
    """Epoch-sampled frequency governor for one server.

    Parameters
    ----------
    coupling:
        The server's DVFS coupling.
    epoch:
        Sampling period in simulated seconds.
    up_threshold:
        Utilization above which the governor jumps straight to f_max
        (``ondemand``'s signature move).
    target_utilization:
        Desired post-scaling utilization when stepping down: the
        governor picks f so busy time / epoch ~ target.
    """

    def __init__(
        self,
        coupling: ServerDVFS,
        epoch: float = 0.1,
        up_threshold: float = 0.8,
        target_utilization: float = 0.7,
    ):
        if epoch <= 0:
            raise PowerModelError(f"epoch must be > 0, got {epoch}")
        if not 0.0 < up_threshold <= 1.0:
            raise PowerModelError(
                f"up_threshold must be in (0, 1], got {up_threshold}"
            )
        if not 0.0 < target_utilization <= 1.0:
            raise PowerModelError(
                f"target_utilization must be in (0, 1], got {target_utilization}"
            )
        self.coupling = coupling
        self.epoch = float(epoch)
        self.up_threshold = float(up_threshold)
        self.target_utilization = float(target_utilization)
        self.sim: Optional[Simulation] = None
        self.epochs_run = 0
        self.boosts = 0

    def bind(self, sim: Simulation) -> None:
        """Start the sampling epoch."""
        if self.sim is not None:
            raise PowerModelError("governor already bound")
        self.sim = sim
        sim.schedule_periodic(self.epoch, self.run_epoch)

    def run_epoch(self) -> None:
        """One governor decision."""
        self.epochs_run += 1
        perf = self.coupling.perf_model
        utilization = self.coupling.server.utilization_since_marker()
        if utilization >= self.up_threshold:
            self.boosts += 1
            self.coupling.set_frequency(perf.f_max)
            return
        # Demand in "full-speed core-seconds per second" terms: the busy
        # fraction already reflects the current speed, so convert back to
        # work and pick the frequency whose speed meets it at the target.
        current_speed = perf.speed(self.coupling.frequency)
        work_rate = utilization * current_speed
        needed_speed = work_rate / self.target_utilization
        frequency = self._frequency_for_speed(needed_speed)
        self.coupling.set_frequency(frequency)

    def _frequency_for_speed(self, speed: float) -> float:
        """Invert Eq. 6: f = f_max * (speed - (1 - alpha)) / alpha."""
        perf = self.coupling.perf_model
        if perf.alpha == 0:
            return perf.f_max
        frequency = perf.f_max * (speed - (1.0 - perf.alpha)) / perf.alpha
        return perf.clamp(frequency)
