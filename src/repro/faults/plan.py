"""FaultPlan: a seeded, deterministic schedule of injected failures.

A chaos run is only useful if it is *replayable*: the same plan against
the same experiment seed must kill the same slave in the same round
every time, so a recovery bug found in CI reproduces on a laptop.  A
:class:`FaultPlan` is therefore plain data — a tuple of
:class:`FaultSpec` entries addressed by ``(slave_id, generation,
round)`` — with JSON (de)serialization for the ``--chaos`` CLI flag and
a seeded :meth:`FaultPlan.random` constructor for fuzzing.

Fault kinds
-----------

``kill``
    The slave dies (``os._exit`` in a slave process; the serial
    backend's inline endpoint closes the same way a dead pipe does).
    ``phase`` selects *when* within the round: before the
    chunk runs (``"pre_run"``), after the chunk but before the report is
    sent (``"pre_report"``), or immediately after the report is sent
    (``"post_report"``) — the three distinct windows a real crash can
    land in, with different work-loss consequences.
``hang``
    The slave stops responding without closing its pipe (sleeps
    ``delay`` seconds, default effectively forever).  Exercises the
    master's per-round recv deadline on every backend (inline, a
    ``delay`` at or past ``round_timeout`` is silence; a shorter one
    costs no wall time).
``drop_report``
    The slave runs its chunk but never sends the report (one round).
    The master sees a heartbeat timeout, exactly as if the report were
    lost in transit.
``corrupt_payload``
    The report is sent with a deterministically mangled histogram
    payload; the master must detect it *before* merging and attribute
    the failure to this slave.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.engine.simulation import seeded_rng

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("kill", "hang", "drop_report", "corrupt_payload")

#: The windows within a round a ``kill`` may target.
KILL_PHASES = ("pre_run", "pre_report", "post_report")


class FaultError(ValueError):
    """Raised for malformed fault plans or specs."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure.

    ``round`` is 1-based (matching the master's round counter) and
    ``generation`` selects which incarnation of the slave is targeted:
    generation 0 is the original, each respawn increments it.  A spec
    for generation g never fires on generation g+1 — so "kill slave 2
    at round 3" does not also kill its replacement.
    """

    kind: str
    slave_id: int
    round: int
    generation: int = 0
    phase: str = "pre_report"  # kill only; see KILL_PHASES
    delay: float = 3600.0  # hang only: seconds to stay silent

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; expected {FAULT_KINDS}"
            )
        if self.slave_id < 0:
            raise FaultError(f"slave_id must be >= 0, got {self.slave_id}")
        if self.round < 1:
            raise FaultError(f"round is 1-based, got {self.round}")
        if self.generation < 0:
            raise FaultError(f"generation must be >= 0, got {self.generation}")
        if self.kind == "kill" and self.phase not in KILL_PHASES:
            raise FaultError(
                f"kill phase must be one of {KILL_PHASES}, got {self.phase!r}"
            )
        if self.delay <= 0:
            raise FaultError(f"delay must be > 0, got {self.delay}")

    def to_dict(self) -> dict:
        """JSON-safe plain form."""
        return {
            "kind": self.kind,
            "slave_id": self.slave_id,
            "round": self.round,
            "generation": self.generation,
            "phase": self.phase,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {"kind", "slave_id", "round", "generation", "phase", "delay"}
        unknown = set(data) - known
        if unknown:
            raise FaultError(f"unknown FaultSpec key(s): {sorted(unknown)}")
        if "kind" not in data:
            raise FaultError("FaultSpec requires a 'kind'")
        return cls(
            kind=data["kind"],
            slave_id=int(data.get("slave_id", 0)),
            round=int(data.get("round", 1)),
            generation=int(data.get("generation", 0)),
            phase=data.get("phase", "pre_report"),
            delay=float(data.get("delay", 3600.0)),
        )


class _SpecPlan:
    """What :class:`FaultPlan` and
    :class:`~repro.faults.netplan.NetFaultPlan` share: a ``specs`` tuple
    with its ``seed``, iterated, addressed by round and (de)serialized
    the same way.  A subclass names its spec class, the JSON key its
    specs live under, and what error messages call it.
    """

    _SPEC: type
    _KEY: str
    _NAME: str

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def at_round(self, round_number: int) -> tuple:
        """All specs scheduled for one round ordinal (trace emission)."""
        return tuple(
            spec for spec in self.specs if spec.round == round_number
        )

    def to_dict(self) -> dict:
        """JSON-safe plain form (``--chaos`` / ``--net-chaos`` files)."""
        payload: Dict[str, object] = {
            self._KEY: [spec.to_dict() for spec in self.specs]
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, data: dict):
        """Inverse of :meth:`to_dict`."""
        if not isinstance(data, dict) or cls._KEY not in data:
            raise FaultError(
                f"{cls._NAME} must be an object with a {cls._KEY!r} list"
            )
        return cls(
            specs=tuple(
                cls._SPEC.from_dict(entry) for entry in data[cls._KEY]
            ),
            seed=data.get("seed"),
        )

    @classmethod
    def load(cls, source: Union[str, Path]):
        """Parse a plan from a JSON file path or an inline JSON string."""
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(source).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise FaultError(
                f"invalid {cls._NAME.replace(' ', '-')} JSON: {error}"
            ) from error
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan as indented JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path


@dataclass(frozen=True)
class FaultPlan(_SpecPlan):
    """An immutable, addressable collection of :class:`FaultSpec` entries."""

    _SPEC = FaultSpec
    _KEY = "faults"
    _NAME = "fault plan"

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    #: The seed used by :meth:`random` (informational; kept so a fuzzed
    #: plan serializes with its provenance).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        seen = set()
        for spec in self.specs:
            key = (spec.slave_id, spec.generation, spec.round, spec.kind)
            if key in seen:
                raise FaultError(
                    f"duplicate fault {spec.kind!r} for slave "
                    f"{spec.slave_id} gen {spec.generation} round {spec.round}"
                )
            seen.add(key)
        # A drop_report suppresses the very send a post_report kill is
        # anchored to, so on one (slave, generation, round) the kill
        # could never fire.  Reject the contradiction up front instead
        # of silently running a plan with a dead entry.
        for spec in self.specs:
            if spec.kind != "kill" or spec.phase != "post_report":
                continue
            slot = (spec.slave_id, spec.generation, spec.round)
            if (*slot, "drop_report") in seen:
                raise FaultError(
                    f"contradictory faults for slave {spec.slave_id} gen "
                    f"{spec.generation} round {spec.round}: drop_report "
                    "suppresses the send a post_report kill fires after"
                )

    def for_slave(
        self, slave_id: int, generation: int = 0
    ) -> Tuple[FaultSpec, ...]:
        """The (picklable) sub-plan shipped to one slave incarnation."""
        return tuple(
            spec
            for spec in self.specs
            if spec.slave_id == slave_id and spec.generation == generation
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def single(cls, kind: str, slave_id: int, round: int, **kwargs) -> "FaultPlan":
        """A one-spec plan (the common test/smoke configuration)."""
        return cls(specs=(FaultSpec(kind=kind, slave_id=slave_id,
                                    round=round, **kwargs),))

    @classmethod
    def random(
        cls,
        seed: int,
        n_slaves: int,
        max_round: int,
        n_faults: int = 1,
        kinds: Iterable[str] = ("kill", "drop_report", "corrupt_payload"),
    ) -> "FaultPlan":
        """A seeded random plan: same arguments, same faults, every time.

        ``hang`` is excluded from the default kinds because it trades
        wall-clock for coverage; opt in explicitly for timeout testing.
        """
        kinds = tuple(kinds)
        if not kinds:
            raise FaultError("need at least one fault kind")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise FaultError(f"unknown fault kind {kind!r}")
        if n_slaves < 1 or max_round < 1:
            raise FaultError("need n_slaves >= 1 and max_round >= 1")
        rng = seeded_rng(seed)
        specs: List[FaultSpec] = []
        taken = set()
        drops = set()       # slots holding a drop_report
        post_kills = set()  # slots holding a kill/post_report
        for index in range(n_faults):
            # Rejection-sample around duplicates and contradictions
            # (drop_report vs kill/post_report on one slot).
            for _ in range(64):
                kind = kinds[int(rng.integers(len(kinds)))]
                slave = int(rng.integers(n_slaves))
                round_number = int(rng.integers(1, max_round + 1))
                phase = KILL_PHASES[int(rng.integers(len(KILL_PHASES)))]
                key = (slave, 0, round_number, kind)
                slot = (slave, 0, round_number)
                if key in taken:
                    continue
                if kind == "drop_report" and slot in post_kills:
                    continue
                if kind == "kill" and phase == "post_report" and slot in drops:
                    continue
                taken.add(key)
                if kind == "drop_report":
                    drops.add(slot)
                elif kind == "kill" and phase == "post_report":
                    post_kills.add(slot)
                specs.append(
                    FaultSpec(kind=kind, slave_id=slave,
                              round=round_number, phase=phase)
                )
                break
            else:
                # Silently yielding fewer specs would let a fuzz run
                # believe it injected faults it never placed.
                raise FaultError(
                    f"could not place fault {index + 1} of {n_faults} "
                    f"after 64 attempts; the n_slaves={n_slaves} x "
                    f"max_round={max_round} x {len(kinds)}-kind space "
                    "is too small for the requested plan"
                )
        return cls(specs=tuple(specs), seed=seed)
