"""Cluster-wide power capping (Section 4.1).

Power capping lets a data center deploy more servers than its provisioned
power infrastructure could support at their aggregate peak, by assigning
each server a hard power budget and throttling (via DVFS) any server that
would exceed it.  The paper's demonstration scheme, reproduced here:

- budgets are recomputed every one-second epoch,
- the budgeting is *fair and proportional*: each server's budget is
  proportional to its utilization in the previous epoch,
- DVFS (idealized, continuous in [0.5, 1.0]) enforces the budget through
  the cubic power model (Eq. 5) and the alpha slowdown model (Eq. 6),
- the *capping level* observed each epoch is "how much more power a
  server would draw, beyond its budget, without a cap".

The salient property for simulator performance is that the scheme is
*global*: every system model interacts each simulated second, which is
what the scalability study (Figs. 7, 9) exercises.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.engine.simulation import Simulation
from repro.power.dvfs import ServerDVFS
from repro.power.models import CubicDVFSPowerModel, PowerModelError


class PowerCappingController:
    """Proportional epoch-based budgeter enforcing a cluster cap via DVFS.

    Parameters
    ----------
    couplings:
        One :class:`ServerDVFS` per managed server; the power model must
        be a :class:`CubicDVFSPowerModel` (it supplies the budget
        inversion).
    cluster_cap:
        Total watts available to the cluster each epoch.
    epoch:
        Budgeting interval in simulated seconds (the paper uses 1 s).
    on_capping_level:
        Optional callback receiving each server's capping level (watts of
        demand beyond budget) every epoch — wire this to an experiment
        statistic to reproduce the "+Capping" output metric of Fig. 9.
    on_power:
        Optional callback receiving each server's budget-enforced power
        draw every epoch.
    """

    def __init__(
        self,
        couplings: Sequence[ServerDVFS],
        cluster_cap: float,
        epoch: float = 1.0,
        on_capping_level: Optional[Callable[[float], None]] = None,
        on_power: Optional[Callable[[float], None]] = None,
    ):
        if not couplings:
            raise PowerModelError("power capping needs >= 1 server")
        if cluster_cap <= 0:
            raise PowerModelError(f"cluster_cap must be > 0, got {cluster_cap}")
        if epoch <= 0:
            raise PowerModelError(f"epoch must be > 0, got {epoch}")
        for coupling in couplings:
            if not isinstance(coupling.power_model, CubicDVFSPowerModel):
                raise PowerModelError(
                    "power capping requires CubicDVFSPowerModel couplings"
                )
        self.couplings = list(couplings)
        self.cluster_cap = float(cluster_cap)
        self.epoch = float(epoch)
        self.on_capping_level = on_capping_level
        self.on_power = on_power
        self.epochs_run = 0
        self.sim: Optional[Simulation] = None

    def bind(self, sim: Simulation) -> None:
        """Start the periodic budgeting epoch."""
        if self.sim is not None:
            raise PowerModelError("capping controller already bound")
        self.sim = sim
        sim.schedule_periodic(self.epoch, self.run_epoch)

    # -- one budgeting epoch -------------------------------------------------

    def run_epoch(self) -> None:
        """Read utilizations, assign proportional budgets, enforce caps."""
        utilizations = [
            coupling.server.utilization_since_marker()
            for coupling in self.couplings
        ]
        budgets = self.compute_budgets(utilizations)
        for coupling, utilization, budget in zip(
            self.couplings, utilizations, budgets
        ):
            self._enforce(coupling, utilization, budget)
        self.epochs_run += 1

    def compute_budgets(self, utilizations: Sequence[float]) -> list[float]:
        """Fair proportional budgets: share the cap by last-epoch utilization.

        A fully idle cluster (all utilizations zero) splits the cap
        evenly — there is nothing to throttle anyway.
        """
        total = float(sum(utilizations))
        n = len(self.couplings)
        if total <= 0.0:
            return [self.cluster_cap / n] * n
        return [self.cluster_cap * u / total for u in utilizations]

    def _enforce(self, coupling: ServerDVFS, utilization: float, budget: float) -> None:
        model: CubicDVFSPowerModel = coupling.power_model
        perf = coupling.perf_model
        uncapped = model.power(utilization, perf.f_max)
        capping_level = max(0.0, uncapped - budget)
        frequency = perf.clamp(model.frequency_for_budget(utilization, budget))
        coupling.set_frequency(frequency)
        if self.on_capping_level is not None:
            self.on_capping_level(capping_level)
        if self.on_power is not None:
            self.on_power(model.power(utilization, frequency))
