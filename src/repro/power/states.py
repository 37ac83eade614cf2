"""ACPI-style server power-state machine.

Section 2.1 of the paper: "the server model might be subclassed or
extended to include state variables for various ACPI power modes, which
modulate task run time, control ACPI state transitions, and output
power/energy estimates."  This module is that extension, done by
composition instead of subclassing: a :class:`PowerStateMachine` wraps a
server, defines a set of named states (each with a power draw, a relative
performance level, and entry/exit latencies), drives the server's
speed / pause through state changes, and integrates per-state residency
and energy.

The classic S/P-state vocabulary maps directly:

- P-states: ``performance < 1.0`` with ``power`` scaled down (the machine
  runs, slower) — enforced via ``Server.set_speed``;
- C/S-states: ``performance == 0`` (nap/sleep/off) — enforced via
  ``Server.pause``, with transition latencies modeling wake-up cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.datacenter.server import Server
from repro.engine.simulation import Simulation


class PowerStateError(RuntimeError):
    """Raised for invalid power-state configurations or transitions."""


@dataclass(frozen=True)
class PowerState:
    """One ACPI-style operating point.

    Attributes
    ----------
    name:
        Identifier (e.g. ``"P0"``, ``"P2"``, ``"S3"``).
    power:
        Power draw while resident in this state, in watts.  For
        performance states this is the *busy* power; idle blending is the
        power model's job — this machine reports residencies so either
        convention can be integrated.
    performance:
        Service-speed multiplier; 0 means no execution (sleep states).
    entry_latency / exit_latency:
        Transition costs in seconds.  During a transition the server is
        paused and the *target* state's power is drawn (conservative for
        wake-ups, matching PowerNap's modeling).
    """

    name: str
    power: float
    performance: float
    entry_latency: float = 0.0
    exit_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.power < 0:
            raise PowerStateError(f"{self.name}: power must be >= 0")
        if self.performance < 0:
            raise PowerStateError(f"{self.name}: performance must be >= 0")
        if self.entry_latency < 0 or self.exit_latency < 0:
            raise PowerStateError(f"{self.name}: latencies must be >= 0")


def acpi_default_states(
    peak_power: float = 300.0,
    idle_power: float = 150.0,
    nap_power: float = 10.0,
) -> Dict[str, PowerState]:
    """A representative ACPI state table (P0-P2, C1, S3)."""
    return {
        "P0": PowerState("P0", power=peak_power, performance=1.0),
        "P1": PowerState("P1", power=0.8 * peak_power, performance=0.8),
        "P2": PowerState("P2", power=0.6 * peak_power, performance=0.6),
        "C1": PowerState(
            "C1", power=idle_power, performance=0.0,
            entry_latency=1e-6, exit_latency=10e-6,
        ),
        "S3": PowerState(
            "S3", power=nap_power, performance=0.0,
            entry_latency=1e-3, exit_latency=1e-3,
        ),
    }


class PowerStateMachine:
    """Drives a server through a table of power states.

    Tracks per-state residency time and energy exactly (piecewise
    integration at transition instants), and exposes
    :meth:`request_state` for policies (governors, nap schedulers) to
    command transitions.  Transition latencies are modeled by pausing the
    server for the entry+exit cost before the new state takes effect.
    """

    def __init__(
        self,
        server: Server,
        states: Dict[str, PowerState],
        initial: str = "P0",
    ):
        if not states:
            raise PowerStateError("need at least one power state")
        if initial not in states:
            raise PowerStateError(f"unknown initial state {initial!r}")
        self.server = server
        self.states = dict(states)
        self.sim: Optional[Simulation] = None
        self._current = states[initial]
        self._transitioning = False
        self._last_change = 0.0
        self.residency: Dict[str, float] = {name: 0.0 for name in states}
        self.energy_joules = 0.0
        self.transitions = 0
        self._listeners: list[Callable[[PowerState, PowerState], None]] = []

    # -- wiring --------------------------------------------------------------

    def bind(self, sim: Simulation) -> None:
        """Attach to the clock; applies the initial state's performance."""
        if self.sim is not None:
            raise PowerStateError("power-state machine already bound")
        self.sim = sim
        self.server.bind(sim)
        self._last_change = sim.now
        self._apply_performance(self._current)

    def on_transition(
        self, listener: Callable[[PowerState, PowerState], None]
    ) -> None:
        """Call ``listener(old_state, new_state)`` when a transition lands."""
        self._listeners.append(listener)

    # -- state access -----------------------------------------------------------

    @property
    def current(self) -> PowerState:
        """The currently-resident (or transition-target) state."""
        return self._current

    @property
    def in_transition(self) -> bool:
        """True while a transition latency is being paid."""
        return self._transitioning

    def power_now(self) -> float:
        """Power draw of the current state."""
        return self._current.power

    # -- transitions ----------------------------------------------------------------

    def request_state(self, name: str) -> None:
        """Transition to ``name`` (no-op if already there).

        The transition pays ``current.exit_latency + target.entry_latency``
        with the server paused, then applies the target's performance.
        Requests made during a transition are rejected — a real platform
        serializes ACPI transitions, and allowing overlap would corrupt
        the residency integrals.
        """
        if self.sim is None:
            raise PowerStateError("bind the machine before requesting states")
        if self._transitioning:
            raise PowerStateError(
                f"transition to {self._current.name} still in flight"
            )
        try:
            target = self.states[name]
        except KeyError:
            raise PowerStateError(f"unknown power state {name!r}") from None
        if target is self._current:
            return
        self._integrate()
        old = self._current
        latency = old.exit_latency + target.entry_latency
        self.transitions += 1
        self._current = target  # target's power is drawn during transition
        if latency > 0:
            self._transitioning = True
            self.server.pause()
            self.sim.schedule_in(
                latency, lambda: self._finish_transition(old, target)
            )
        else:
            self._finish_transition(old, target)

    def _finish_transition(self, old: PowerState, target: PowerState) -> None:
        self._transitioning = False
        self._apply_performance(target)
        for listener in self._listeners:
            listener(old, target)

    def _apply_performance(self, state: PowerState) -> None:
        if state.performance <= 0.0:
            self.server.pause()
        else:
            self.server.set_speed(state.performance)
            self.server.resume()

    # -- accounting --------------------------------------------------------------------

    def _integrate(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_change
        if elapsed > 0:
            self.residency[self._current.name] += elapsed
            self.energy_joules += self._current.power * elapsed
        self._last_change = now

    def residency_fractions(self) -> Dict[str, float]:
        """Fraction of elapsed time spent in each state."""
        self._integrate()
        total = sum(self.residency.values())
        if total <= 0:
            return {name: 0.0 for name in self.residency}
        return {name: time / total for name, time in self.residency.items()}

    def average_power(self) -> float:
        """Mean power over the run so far."""
        self._integrate()
        total = sum(self.residency.values())
        if total <= 0:
            return self._current.power
        return self.energy_joules / total
