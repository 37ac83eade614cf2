"""Recovery policy: respawn budgets, backoff, supervision, seed lineage.

Three independent concerns live here:

- :class:`RespawnPolicy` — *whether and when* to replace a dead slave:
  per-slave and run-total restart budgets, exponential backoff with a
  deterministic seeded jitter (thundering-herd protection that still
  replays bit-identically in chaos tests).
- :class:`SeedLineage` — *which stream* the replacement draws:
  generation-aware seed derivation with an explicit uniqueness
  registry.  Handing a replacement its predecessor's seed would replay
  the predecessor's exact draw sequence and double-count the partial
  observations already merged from it — the classic silent-bias bug
  this class exists to make structurally impossible.
- :class:`SupervisionPolicy` — *whether the run itself survives* a
  shrinking fleet: the minimum fleet size below which continuing is
  pointless and an overall wall-clock deadline.  Violations raise
  :class:`SupervisionError` with a machine-readable cause (never a
  silent hang) unless the policy says to continue degraded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Golden-ratio multiplier shared with the original per-slave seed rule.
_SEED_STRIDE = 0x9E3779B9
#: A second odd constant decorrelating the generation axis from the
#: slave-id axis, so (slave, gen) pairs spread over the seed space.
_GENERATION_STRIDE = 0x85EBCA6B
_SEED_MASK = 0x7FFFFFFF
#: Longest wait, in seconds, before a respawn.
_BACKOFF_CAP = 30.0


def derive_seed(master_seed: int, slave_id: int, generation: int = 0) -> int:
    """Deterministic seed for one slave incarnation.

    Generation 0 reproduces the original per-slave seed rule exactly
    (so healthy runs are bit-compatible with checkpoints and results
    recorded before fault tolerance existed); respawns mix in the
    generation along an independent stride.
    """
    return (
        master_seed
        + _SEED_STRIDE * (slave_id + 1)
        + _GENERATION_STRIDE * generation
    ) & _SEED_MASK


class SeedLineage:
    """Registry of every seed issued during one run.

    The master seed is registered at construction; each
    :meth:`issue` derives a generation-aware slave seed and asserts it
    collides with nothing issued before.  A collision (astronomically
    unlikely, but the whole point of an assertion is the "impossible"
    case) raises rather than silently correlating two streams.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        #: seed -> (slave_id, generation); the master itself is (-1, 0).
        self._issued: Dict[int, Tuple[int, int]] = {
            master_seed & _SEED_MASK: (-1, 0)
        }

    def issue(self, slave_id: int, generation: int = 0) -> int:
        """Derive, register, and return a unique seed."""
        seed = derive_seed(self.master_seed, slave_id, generation)
        holder = self._issued.get(seed)
        if holder is not None and holder != (slave_id, generation):
            raise RuntimeError(
                f"seed lineage collision: seed {seed} for slave "
                f"{slave_id} gen {generation} already issued to slave "
                f"{holder[0]} gen {holder[1]}"
            )
        self._issued[seed] = (slave_id, generation)
        return seed

    def issued(self) -> List[Tuple[int, int, int]]:
        """``[(seed, slave_id, generation), ...]`` in seed order."""
        return sorted(
            (seed, slave, gen)
            for seed, (slave, gen) in self._issued.items()
        )

    def __len__(self) -> int:
        return len(self._issued)

    def __contains__(self, seed: int) -> bool:
        return seed in self._issued


def backoff_delay(
    generation: int,
    base: float,
    cap: float,
    jitter: float,
    jitter_seed: Optional[int] = None,
) -> float:
    """Exponential backoff with deterministic jitter.

    ``generation`` is the incarnation being spawned (1 = first respawn).
    The jitter fraction is drawn from a generator seeded with
    ``jitter_seed`` so two runs of the same chaos plan wait identical
    delays — randomness without nondeterminism.
    """
    if generation < 1:
        return 0.0
    delay = min(cap, base * (2.0 ** (generation - 1)))
    if jitter > 0.0 and jitter_seed is not None:
        # Imported here: the engine package imports the datacenter, whose
        # balancers import this module.
        from repro.engine.simulation import seeded_rng

        fraction = float(seeded_rng(jitter_seed).random())
        delay *= 1.0 + jitter * fraction
    return min(cap, delay)


@dataclass(frozen=True)
class RespawnPolicy:
    """When (and how eagerly) dead slaves are replaced.

    ``max_restarts_per_slave`` bounds each slave id's respawn count, so
    a systematically crashing factory cannot respawn forever.  Delays
    follow ``backoff_base * 2**(generation-1)`` capped at 30 s,
    stretched by up to ``jitter`` (fractional) of seeded noise.
    """

    max_restarts_per_slave: int = 2
    backoff_base: float = 0.25
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_restarts_per_slave < 0:
            raise ValueError(
                f"max_restarts_per_slave must be >= 0, got "
                f"{self.max_restarts_per_slave}"
            )
        if self.backoff_base < 0:
            raise ValueError("backoff must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def allows(self, restarts_for_slave: int) -> bool:
        """Whether one more respawn fits the slave's budget."""
        return restarts_for_slave < self.max_restarts_per_slave

    def delay(self, generation: int, jitter_seed: Optional[int] = None) -> float:
        """Backoff before spawning ``generation`` (1 = first respawn)."""
        return backoff_delay(
            generation,
            self.backoff_base,
            _BACKOFF_CAP,
            self.jitter,
            jitter_seed,
        )


class SupervisionError(RuntimeError):
    """A :class:`SupervisionPolicy` aborted the run.

    ``cause`` is the machine-readable cause code (one of the
    ``CAUSE_*`` constants in :mod:`repro.parallel.protocol`); the
    message carries the free-form detail.
    """

    def __init__(self, message: str, cause: str):
        super().__init__(message)
        self.cause = cause


@dataclass(frozen=True)
class SupervisionPolicy:
    """Run-level survival and degradation rules for a shrinking fleet.

    Where :class:`RespawnPolicy` decides the fate of one dead worker,
    this decides the fate of the *run*:

    - ``min_workers`` — the fleet floor.  When the workers still able
      to contribute (live, plus scheduled respawns) fall below it, the
      run aborts with :class:`SupervisionError` (``on_exhausted=
      "abort"``, the default) or presses on with whatever survives
      (``"continue"``).
    - ``deadline`` — overall wall-clock budget in seconds for the run.
      Past it, ``"abort"`` raises while ``"continue"`` stops cleanly
      and returns the merged-so-far result flagged ``degraded`` (with
      honest, wider CIs), never a silent hang.
    """

    min_workers: int = 1
    deadline: Optional[float] = None
    on_exhausted: str = "abort"

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be > 0 or None, got {self.deadline}"
            )
        if self.on_exhausted not in ("abort", "continue"):
            raise ValueError(
                f"on_exhausted must be 'abort' or 'continue', "
                f"got {self.on_exhausted!r}"
            )

    def fleet_ok(self, effective_workers: int) -> bool:
        """Whether the run may continue with this many contributors."""
        return effective_workers >= self.min_workers
