"""FaultPlan: a deterministic schedule of injected failures.

A chaos run is only useful if it is *replayable*: the same plan against
the same experiment seed must break the same worker at the same point
every time, so a recovery bug found in CI reproduces on a laptop.  A
:class:`FaultPlan` is therefore plain data — a tuple of
:class:`FaultSpec` entries addressed by ``(slave_id, generation,
round)`` — read from the JSON the ``--chaos`` CLI flag takes, and
checked by :func:`repro.shape.checked` before anything is built from it.

Worker kinds
------------

The worker's own :class:`~repro.faults.injector.FaultInjector` executes
them, on every backend.  ``round`` counts the incarnation's commands as
the master numbers its rounds (on a pool worker: its n-th configure).

``kill``
    The worker dies (``os._exit`` in a worker process; the inline
    endpoint closes the way a dead pipe does).  ``phase`` selects *when*
    within the round: before the chunk runs (``"pre_run"``), after the
    chunk but before the report is sent (``"pre_report"``, the
    default), or immediately after the report is sent
    (``"post_report"``) — the three windows a real crash can land in,
    with different work-loss consequences.
``hang``
    The worker stops responding without closing its channel (sleeps
    ``delay`` seconds, default 3600: effectively forever).  Exercises
    the reply deadline on every backend (inline, a ``delay`` at or past
    the deadline is silence; a shorter one costs no wall time).
``drop_report``
    The worker runs its chunk but never sends the report (one round).
    The master sees its deadline expire, as if the report were lost.
``corrupt_payload``
    The report is sent deterministically mangled; the master must
    detect it *before* merging and attribute it to this worker.

Frame kinds
-----------

A :class:`~repro.parallel.chaos.ChaosTransport` applies them at the
frame boundary.  The master and the pool wrap one around their framed
(remote or in-memory) transport themselves when the plan holds any.
``round`` counts the incarnation's sequenced data frames on its
connection, per ``direction``: ``"in"`` (worker to master, the default)
or ``"out"`` (master to worker).  Heartbeats are unsequenced and never
count, so a plan addresses the same frame with liveness monitoring on
or off.  On the master one round is one command out and one report in,
so the ordinals coincide with its rounds.

``delay``
    The frame is held ``delay`` seconds (default 0.5), then delivered.
``drop``
    The frame vanishes (its sequence number is still consumed).
``duplicate``
    The same stamped frame is delivered twice; dedup must eat the copy.
``corrupt``
    The frame arrives undecodable and the worker dies with cause
    ``"corrupt frame"``.  Inbound only.
``partition``
    From this frame on, the direction is blackholed below the heartbeat
    layer: a half-open link only liveness monitoring can detect.
``agent_crash``
    The worker's host connection is torn down at the send, as if its
    agent died.  Outbound only.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Tuple, Union

from repro.shape import checked

#: What the worker-side FaultInjector executes.
WORKER_KINDS = ("kill", "hang", "drop_report", "corrupt_payload")

#: What a ChaosTransport applies at the frame boundary.
FRAME_KINDS = (
    "delay", "drop", "duplicate", "corrupt", "partition", "agent_crash",
)

#: Every fault kind a plan may schedule.
FAULT_KINDS = WORKER_KINDS + FRAME_KINDS

#: The windows within a round a ``kill`` may target.
KILL_PHASES = ("pre_run", "pre_report", "post_report")

#: The frame directions a frame kind may address.
DIRECTIONS = ("in", "out")

#: Frame kinds pinned to the one direction they make sense at.
_FIXED_DIRECTION = {"corrupt": "in", "agent_crash": "out"}

#: The shapes of a plan document and of each entry of its ``faults``.
_PLAN_SHAPE = {"faults": list, "seed": Optional[int]}
_SPEC_SHAPE = {
    "kind": str, "slave_id": int, "round": int, "generation": int,
    "phase": str, "direction": str, "delay": float,
}


class FaultError(ValueError):
    """Raised for malformed fault plans or specs."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure of one worker incarnation.

    ``round`` is 1-based and counts what its kind counts (see the module
    docstring).  ``generation`` selects the incarnation: 0 is the
    original, each respawn increments it, and a spec for generation g
    never fires on g+1 — so "kill slave 2 at round 3" does not also kill
    its replacement.  ``phase`` belongs to worker kinds and
    ``direction`` to frame kinds; each stays None on the other.  An
    omitted ``phase``, ``direction`` or ``delay`` takes its kind's
    default.
    """

    kind: str
    slave_id: int = 0
    round: int = 1
    generation: int = 0
    phase: Optional[str] = None
    direction: Optional[str] = None
    delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"kind: unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.slave_id < 0:
            raise FaultError(f"slave_id: must be >= 0, got {self.slave_id}")
        if self.round < 1:
            raise FaultError(f"round: is 1-based, got {self.round}")
        if self.generation < 0:
            raise FaultError(
                f"generation: must be >= 0, got {self.generation}"
            )
        defaults = (
            {"direction": _FIXED_DIRECTION.get(self.kind, "in"), "delay": 0.5}
            if self.kind in FRAME_KINDS
            else {"phase": "pre_report", "delay": 3600.0}
        )
        for key in ("phase", "direction"):
            if key not in defaults and getattr(self, key) is not None:
                raise FaultError(f"{key}: {self.kind!r} faults take no {key}")
        for key, default in defaults.items():
            if getattr(self, key) is None:
                object.__setattr__(self, key, default)
        object.__setattr__(self, "delay", float(self.delay))
        if self.phase is not None and self.phase not in KILL_PHASES:
            raise FaultError(
                f"phase: must be one of {', '.join(KILL_PHASES)}, "
                f"got {self.phase!r}"
            )
        fixed = _FIXED_DIRECTION.get(self.kind)
        allowed = (fixed,) if fixed else DIRECTIONS
        if self.direction is not None and self.direction not in allowed:
            raise FaultError(
                f"direction: {self.kind!r} faults take "
                f"{' or '.join(map(repr, allowed))}, got {self.direction!r}"
            )
        if not 0 < self.delay <= sys.float_info.max:
            raise FaultError(
                f"delay: must be a finite number > 0, got {self.delay}"
            )

    def to_dict(self) -> dict:
        """JSON-safe plain form: the fields its kind has."""
        return {
            key: value for key, value in asdict(self).items()
            if value is not None
        }

    @classmethod
    def from_dict(cls, data, where: str = "") -> "FaultSpec":
        """Inverse of :meth:`to_dict`.  A refusal names the key path,
        under ``where`` (the path to ``data`` in its document)."""
        fields = checked(data, _SPEC_SHAPE, where, FaultError,
                         required=("kind",))
        try:
            return cls(**fields)
        except FaultError as error:
            raise FaultError(f"{where}.{error}" if where else str(error)) from None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, addressable collection of :class:`FaultSpec` entries.

    A well-formed plan schedules each worker kind at most once per
    incarnation and round, and at most one fault per frame (two on one
    frame would have an order the plan cannot express).  It never pairs
    a ``drop_report`` with a ``post_report`` kill on one round: the drop
    suppresses the very send the kill fires after.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    #: Provenance of a generated plan (informational; serialized along).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        taken = set()
        for index, spec in enumerate(self.specs):
            slot = (spec.slave_id, spec.generation, spec.round)
            # A worker kind holds its slot per kind, a frame kind per
            # direction (only frame kinds have one).
            key = (*slot, spec.direction or spec.kind)
            if key in taken:
                raise FaultError(f"faults[{index}]: " + (
                    f"slave {spec.slave_id} gen {spec.generation} "
                    f"{spec.direction!r}-frame {spec.round} already has "
                    "a fault; one frame takes at most one fault"
                    if spec.direction else
                    f"duplicate fault {spec.kind!r} for slave "
                    f"{spec.slave_id} gen {spec.generation} round {spec.round}"
                ))
            taken.add(key)
        for index, spec in enumerate(self.specs):
            slot = (spec.slave_id, spec.generation, spec.round)
            if (spec.kind == "kill" and spec.phase == "post_report"
                    and (*slot, "drop_report") in taken):
                raise FaultError(
                    f"faults[{index}]: contradictory faults for slave "
                    f"{spec.slave_id} gen {spec.generation} round "
                    f"{spec.round}: drop_report suppresses the send a "
                    "post_report kill fires after"
                )

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def at_round(self, round_number: int) -> Tuple[FaultSpec, ...]:
        """The worker-kind specs scheduled for one master round (a frame
        kind's ``round`` counts frames, not rounds)."""
        return tuple(
            spec for spec in self.specs
            if spec.round == round_number and spec.kind in WORKER_KINDS
        )

    def for_slave(
        self, slave_id: int, generation: int = 0, kinds=WORKER_KINDS
    ) -> Tuple[FaultSpec, ...]:
        """The specs of ``kinds`` for one slave incarnation; by default
        the (picklable) sub-plan its fault injector executes."""
        return tuple(
            spec for spec in self.specs
            if spec.slave_id == slave_id and spec.generation == generation
            and spec.kind in kinds
        )

    @property
    def frame_kinds(self) -> Tuple[str, ...]:
        """The frame kinds the plan schedules, in :data:`FRAME_KINDS`
        order; empty when no ChaosTransport is needed."""
        present = {spec.kind for spec in self.specs}
        return tuple(kind for kind in FRAME_KINDS if kind in present)

    @classmethod
    def single(cls, kind: str, slave_id: int, round: int, **kwargs) -> "FaultPlan":
        """A one-spec plan (the common test/smoke configuration)."""
        return cls(specs=(FaultSpec(kind=kind, slave_id=slave_id,
                                    round=round, **kwargs),))

    # -- the document --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe plain form (a ``--chaos`` document)."""
        payload: dict = {"faults": [spec.to_dict() for spec in self.specs]}
        if self.seed is not None:
            payload["seed"] = self.seed
        return payload

    @classmethod
    def from_dict(cls, data) -> "FaultPlan":
        """Inverse of :meth:`to_dict`.  Anything else is a
        :class:`FaultError` whose message starts with the key path
        (``faults[0].round: expected an integer, got 2.9``)."""
        document = checked(data, _PLAN_SHAPE, "", FaultError,
                           required=("faults",))
        return cls(
            specs=tuple(
                FaultSpec.from_dict(entry, f"faults[{index}]")
                for index, entry in enumerate(document["faults"])
            ),
            seed=document.get("seed"),
        )

    @classmethod
    def load(cls, source: Union[str, Path]) -> "FaultPlan":
        """Parse a plan from a JSON file path or an inline JSON string."""
        text = str(source)
        try:
            if not text.lstrip().startswith("{"):
                text = Path(source).read_text()
            data = json.loads(text)
        except ValueError as error:  # bad JSON or UTF-8, an over-long int
            raise FaultError(f"invalid fault-plan JSON: {error}") from error
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the plan as indented JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path
