"""Power/performance models and the power-capping system of Section 4.

- :class:`LinearPowerModel` — Eq. 4: ``P = P_dynamic * U + P_idle``,
  the utilization-linear server power model validated by Fan et al. and
  Rivoire et al.
- :class:`CubicDVFSPowerModel` — Eq. 5: CPU dynamic power scales as
  ``(f / f_max)^3`` under idealized DVFS.
- :class:`DVFSPerformanceModel` — Eq. 6: service-rate slowdown
  ``mu' = mu * (alpha * f/f_max + (1 - alpha))`` for an application that
  is ``alpha`` CPU-bound (the paper uses alpha = 0.9).
- :class:`ServerDVFS` — couples a server to the two models so a
  frequency setting modulates both its speed and its power draw.
- :class:`PowerCappingController` — the proportional epoch budgeter of
  Section 4.1 that enforces a cluster-wide cap through per-server DVFS.
- :class:`EnergyMeter` — event-driven energy integration.
"""

from repro import _lazy_exports

__all__ = [
    "PowerModel",
    "PowerModelError",
    "LinearPowerModel",
    "CubicDVFSPowerModel",
    "NapPowerModel",
    "DVFSPerformanceModel",
    "ServerDVFS",
    "EnergyMeter",
    "PowerCappingController",
    "PowerState",
    "PowerStateError",
    "PowerStateMachine",
    "acpi_default_states",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "CubicDVFSPowerModel": "repro.power.models",
    "LinearPowerModel": "repro.power.models",
    "NapPowerModel": "repro.power.models",
    "PowerModel": "repro.power.models",
    "PowerModelError": "repro.power.models",
    "DVFSPerformanceModel": "repro.power.dvfs",
    "ServerDVFS": "repro.power.dvfs",
    "EnergyMeter": "repro.power.meter",
    "PowerCappingController": "repro.power.capping",
    "PowerState": "repro.power.states",
    "PowerStateError": "repro.power.states",
    "PowerStateMachine": "repro.power.states",
    "acpi_default_states": "repro.power.states",
})
