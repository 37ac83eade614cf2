"""NetFaultPlan: a seeded, deterministic schedule of *network* faults.

The sibling of :class:`~repro.faults.plan.FaultPlan`: where a FaultPlan
makes workers misbehave (crash, hang, lie), a NetFaultPlan makes the
*wire between* master and workers misbehave — frames delayed, dropped,
duplicated, corrupted, one direction silently blackholed, or the
worker's host connection torn down mid-run.  The two compose: a run may
carry both a FaultPlan (applied inside the workers) and a NetFaultPlan
(applied at the frame boundary by
:class:`~repro.parallel.chaos.ChaosTransport`), and each stays
deterministic independently.

Addressing follows PR 4's scheme: a spec targets one
``(worker_id, generation, round)`` — but here ``round`` is the 1-based
ordinal of *data frames* on that worker's connection in the spec's
``direction`` (``"out"`` = master->worker sends, ``"in"`` =
worker->master deliveries).  On the classic master one round sends one
command out and receives one report in, so frame ordinals coincide with
master rounds; on the pool, ordinal n addresses the n-th
configure/result.  Heartbeat frames are unsequenced and never count, so
a plan addresses the same frame whether or not liveness monitoring is
on — which is what makes the chaos matrix replayable across the remote
loopback backend and the in-memory fake transport.

Fault kinds
-----------

``delay``
    The frame is held ``delay`` seconds before delivery/send.
    Harmless to digests; exercises deadline slack.
``drop``
    The frame vanishes (the sequence number is still consumed).  The
    receiving side sees silence — the master's round deadline or
    heartbeat monitoring must catch it.
``duplicate``
    The *same stamped frame* is delivered twice; receiver-side
    sequence dedup must discard the copy (a double-merged report or a
    double-run chunk is the bug this kind exists to catch).
``corrupt``
    The frame arrives undecodable: the master's reader raises
    :class:`~repro.parallel.transport.FrameError` and the worker dies
    with cause ``"corrupt frame"``.  Inbound only (``direction="in"``)
    — the master-side decode is the boundary under test.
``partition``
    From this frame on, the spec's direction is silently blackholed
    *below* the heartbeat layer (no FIN, acks/pings eaten too): the
    half-open link only liveness monitoring can detect.
``agent_crash``
    The worker's host connection is torn down at the send boundary
    (outbound only), as if the agent process died: the master sees a
    send failure / EOF and the respawn path takes over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.engine.simulation import seeded_rng
from repro.faults.plan import FaultError, _SpecPlan

#: Every network fault kind a plan may schedule.
NET_FAULT_KINDS = (
    "delay", "drop", "duplicate", "corrupt", "partition", "agent_crash",
)

#: Frame directions a spec may address.
DIRECTIONS = ("in", "out")

#: Kinds pinned to one direction (the only boundary they make sense at).
_FIXED_DIRECTION = {"corrupt": "in", "agent_crash": "out"}


@dataclass(frozen=True)
class NetFaultSpec:
    """One scheduled network fault.

    ``round`` is the 1-based data-frame ordinal on the targeted worker
    incarnation's connection, counted per ``direction``; ``generation``
    selects the incarnation exactly as in
    :class:`~repro.faults.plan.FaultSpec` — a spec for generation g
    never fires on the respawned generation g+1.
    """

    kind: str
    worker_id: int
    round: int
    generation: int = 0
    direction: str = "in"
    delay: float = 0.5  # delay kind only: seconds to hold the frame

    def __post_init__(self) -> None:
        if self.kind not in NET_FAULT_KINDS:
            raise FaultError(
                f"unknown net fault kind {self.kind!r}; "
                f"expected {NET_FAULT_KINDS}"
            )
        if self.worker_id < 0:
            raise FaultError(
                f"worker_id must be >= 0, got {self.worker_id}"
            )
        if self.round < 1:
            raise FaultError(f"round is 1-based, got {self.round}")
        if self.generation < 0:
            raise FaultError(
                f"generation must be >= 0, got {self.generation}"
            )
        if self.direction not in DIRECTIONS:
            raise FaultError(
                f"direction must be one of {DIRECTIONS}, "
                f"got {self.direction!r}"
            )
        fixed = _FIXED_DIRECTION.get(self.kind)
        if fixed is not None and self.direction != fixed:
            raise FaultError(
                f"{self.kind!r} faults are {fixed!r}-direction only, "
                f"got {self.direction!r}"
            )
        if self.delay <= 0:
            raise FaultError(f"delay must be > 0, got {self.delay}")

    def to_dict(self) -> dict:
        """JSON-safe plain form."""
        return {
            "kind": self.kind,
            "worker_id": self.worker_id,
            "round": self.round,
            "generation": self.generation,
            "direction": self.direction,
            "delay": self.delay,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetFaultSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {
            "kind", "worker_id", "round", "generation", "direction", "delay",
        }
        unknown = set(data) - known
        if unknown:
            raise FaultError(
                f"unknown NetFaultSpec key(s): {sorted(unknown)}"
            )
        if "kind" not in data:
            raise FaultError("NetFaultSpec requires a 'kind'")
        kind = data["kind"]
        return cls(
            kind=kind,
            worker_id=int(data.get("worker_id", 0)),
            round=int(data.get("round", 1)),
            generation=int(data.get("generation", 0)),
            direction=data.get(
                "direction", _FIXED_DIRECTION.get(kind, "in")
            ),
            delay=float(data.get("delay", 0.5)),
        )


@dataclass(frozen=True)
class NetFaultPlan(_SpecPlan):
    """An immutable, addressable collection of :class:`NetFaultSpec`.

    At most one spec per ``(worker_id, generation, round, direction)``
    frame slot: two faults on one frame would have an application order
    the plan cannot express, so the ambiguity is rejected up front.
    """

    _SPEC = NetFaultSpec
    _KEY = "net_faults"
    _NAME = "net fault plan"

    specs: Tuple[NetFaultSpec, ...] = field(default_factory=tuple)
    #: The seed used by :meth:`random` (provenance; serialized along).
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        seen = set()
        for spec in self.specs:
            slot = (
                spec.worker_id, spec.generation, spec.round, spec.direction,
            )
            if slot in seen:
                raise FaultError(
                    f"two net faults address worker {spec.worker_id} gen "
                    f"{spec.generation} {spec.direction!r}-frame "
                    f"{spec.round}; one frame takes at most one fault"
                )
            seen.add(slot)

    def for_worker(
        self, worker_id: int, generation: int = 0
    ) -> Tuple[NetFaultSpec, ...]:
        """The sub-plan applying to one worker incarnation."""
        return tuple(
            spec
            for spec in self.specs
            if spec.worker_id == worker_id
            and spec.generation == generation
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def single(
        cls, kind: str, worker_id: int, round: int, **kwargs
    ) -> "NetFaultPlan":
        """A one-spec plan (the common test/smoke configuration)."""
        return cls(
            specs=(
                NetFaultSpec(
                    kind=kind, worker_id=worker_id, round=round, **kwargs
                ),
            )
        )

    @classmethod
    def random(
        cls,
        seed: int,
        n_workers: int,
        max_round: int,
        n_faults: int = 1,
        kinds: Iterable[str] = ("delay", "drop", "duplicate"),
    ) -> "NetFaultPlan":
        """A seeded random plan: same arguments, same faults, every time.

        ``corrupt``/``partition``/``agent_crash`` are excluded from the
        default kinds because each costs a worker incarnation (opt in
        explicitly, with a respawn policy to absorb the deaths).
        """
        kinds = tuple(kinds)
        if not kinds:
            raise FaultError("need at least one fault kind")
        for kind in kinds:
            if kind not in NET_FAULT_KINDS:
                raise FaultError(f"unknown net fault kind {kind!r}")
        if n_workers < 1 or max_round < 1:
            raise FaultError("need n_workers >= 1 and max_round >= 1")
        rng = seeded_rng(seed)
        specs: List[NetFaultSpec] = []
        taken = set()
        for index in range(n_faults):
            # Rejection-sample around occupied frame slots.
            for _ in range(64):
                kind = kinds[int(rng.integers(len(kinds)))]
                worker = int(rng.integers(n_workers))
                round_number = int(rng.integers(1, max_round + 1))
                direction = _FIXED_DIRECTION.get(
                    kind, DIRECTIONS[int(rng.integers(len(DIRECTIONS)))]
                )
                slot = (worker, 0, round_number, direction)
                if slot in taken:
                    continue
                taken.add(slot)
                specs.append(
                    NetFaultSpec(
                        kind=kind,
                        worker_id=worker,
                        round=round_number,
                        direction=direction,
                    )
                )
                break
            else:
                # Yielding fewer specs than asked would let a fuzz run
                # believe it injected faults it never placed.
                raise FaultError(
                    f"could not place net fault {index + 1} of "
                    f"{n_faults} after 64 attempts; the "
                    f"n_workers={n_workers} x max_round={max_round} "
                    "frame-slot space is too small for the plan"
                )
        return cls(specs=tuple(specs), seed=seed)
