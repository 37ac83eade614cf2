"""Runtime determinism sanitizer: hash the event stream, catch RNG drift.

The statistics stack assumes that a seeded run is *one* well-defined
sequence of events no matter how it is executed: prefetched or
per-draw, serial or process-parallel.  The sanitizer makes that
assumption checkable at run time:

- :class:`DeterminismProbe` — attached to a
  :class:`~repro.engine.simulation.Simulation` via
  ``Experiment(..., sanitize=True)`` (or ``Simulation.enable_sanitizer``
  directly).  It folds every dispatched event's timestamp into a
  streaming BLAKE2 hash (the **event digest**) and every prefetch block
  refill into a second hash (the **RNG digest**).  Two runs that
  dispatch the same events at the same virtual times produce the same
  event digest; the RNG digest additionally pins where block boundaries
  fell, so it is only comparable between runs with the same prefetch
  configuration.

- while a probe is attached, every refill of
  every sampler a component builds through
  :meth:`~repro.engine.simulation.Simulation.sampler` is cross-checked:
  the block draw is replayed per-draw from a clone of the generator
  state and must consume the generator bit-identically and produce the
  same values, else
  :class:`~repro.distributions.prefetch.PrefetchContractError` is
  raised naming the offending distribution.

- :func:`verify_prefetch_determinism` and
  :func:`verify_backend_determinism` are the two canonical A/B checks:
  prefetch-on vs prefetch-off event streams, and serial vs process
  backend per-slave event streams.  Both take an experiment ``factory``
  with the standard ``factory(seed, **kwargs) -> Experiment`` shape
  used by :mod:`repro.parallel`; the factory must forward ``prefetch``
  and ``sanitize`` keyword arguments to :class:`Experiment` (the
  process-backend check additionally requires the factory to be
  picklable, i.e. module-level).

Event digests hash raw IEEE-754 timestamps, which is only sound because
the prefetch contract is *bit*-identical consumption — numpy's scalar
and vectorized draws produce the same bits for every shipped
distribution (pinned by ``tests/test_prefetch.py``).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


class SanitizerError(RuntimeError):
    """Raised for sanitizer misuse (no probe attached, bad configuration)."""


@dataclass(frozen=True)
class SanitizerDigest:
    """Snapshot of a probe's accumulated hashes (plain, picklable data)."""

    event_digest: str
    events_hashed: int
    rng_digest: str
    rng_blocks: int

    def to_dict(self) -> dict:
        """JSON-safe form (used by ``repro run --sanitize`` output)."""
        return {
            "event_digest": self.event_digest,
            "events_hashed": self.events_hashed,
            "rng_digest": self.rng_digest,
            "rng_blocks": self.rng_blocks,
        }


class DeterminismProbe:
    """Streaming hasher for the event-dispatch stream and RNG blocks.

    Prefetch samplers bound while a probe is attached replay every block
    per-draw and raise on any divergence.
    """

    __slots__ = ("events_hashed", "rng_blocks", "_events", "_rng")

    def __init__(self):
        self.events_hashed = 0
        self.rng_blocks = 0
        self._events = hashlib.blake2b(digest_size=16)
        self._rng = hashlib.blake2b(digest_size=16)

    def record_time(self, time: float) -> None:
        """Fold one dispatched event's virtual timestamp into the hash."""
        self._events.update(struct.pack("<d", time))
        self.events_hashed += 1

    def record_block(self, size: int) -> None:
        """Fold one prefetch-block refill (its size) into the RNG hash."""
        self._rng.update(struct.pack("<q", size))
        self.rng_blocks += 1

    def snapshot(self) -> SanitizerDigest:
        """Current digests as immutable plain data."""
        return SanitizerDigest(
            event_digest=self._events.hexdigest(),
            events_hashed=self.events_hashed,
            rng_digest=self._rng.hexdigest(),
            rng_blocks=self.rng_blocks,
        )


@dataclass
class SanitizerCheck:
    """Outcome of one A/B determinism check."""

    name: str
    matched: bool
    digests: Dict[str, SanitizerDigest] = field(default_factory=dict)
    details: str = ""

    def __bool__(self) -> bool:
        return self.matched

    def to_dict(self) -> dict:
        """JSON-safe form."""
        return {
            "name": self.name,
            "matched": self.matched,
            "details": self.details,
            "digests": {
                label: digest.to_dict()
                for label, digest in self.digests.items()
            },
        }


def experiment_digest(
    factory: Callable,
    seed: int = 0,
    factory_kwargs: Optional[dict] = None,
    max_events: Optional[int] = None,
) -> SanitizerDigest:
    """Run one sanitized experiment to completion and return its digest."""
    kwargs = dict(factory_kwargs or {})
    kwargs.setdefault("sanitize", True)
    experiment = factory(seed=seed, **kwargs)
    probe = experiment.simulation.probe
    if probe is None:
        raise SanitizerError(
            "factory did not produce a sanitized experiment; it must "
            "forward sanitize=True to Experiment"
        )
    experiment.run(max_events=max_events)
    return probe.snapshot()


def verify_prefetch_determinism(
    factory: Callable,
    seed: int = 0,
    max_events: Optional[int] = None,
) -> SanitizerCheck:
    """Assert prefetch-on and prefetch-off runs dispatch identical events.

    Runs ``factory(seed=seed, prefetch=True, sanitize=True)`` and the
    ``prefetch=False`` twin under the same seed and compares event
    digests.  RNG digests are reported but *not* compared — block
    boundaries legitimately differ between the two configurations.
    """
    digests = {}
    for label, prefetch in (("prefetch-on", True), ("prefetch-off", False)):
        digests[label] = experiment_digest(
            factory, seed=seed, factory_kwargs={"prefetch": prefetch},
            max_events=max_events,
        )
    on, off = digests["prefetch-on"], digests["prefetch-off"]
    matched = (
        on.event_digest == off.event_digest
        and on.events_hashed == off.events_hashed
    )
    details = (
        "event streams identical"
        if matched
        else (
            f"event streams diverge: prefetch-on hashed "
            f"{on.events_hashed} events ({on.event_digest}), "
            f"prefetch-off hashed {off.events_hashed} events "
            f"({off.event_digest})"
        )
    )
    return SanitizerCheck(
        name="prefetch-determinism",
        matched=matched,
        digests=digests,
        details=details,
    )


def verify_backend_determinism(
    factory: Callable,
    n_slaves: int = 2,
    chunk_size: int = 500,
    max_rounds: int = 200,
) -> SanitizerCheck:
    """Assert serial and process backends drive identical slave streams.

    Runs the full master/slave protocol once per backend (at its default
    master seed) with sanitized slaves and compares each slave's
    cumulative event digest.  The factory must be picklable
    (module-level) and forward ``sanitize`` to :class:`Experiment`.
    """
    from repro.parallel.master import ParallelSimulation

    per_backend: Dict[str, List[SanitizerDigest]] = {}
    for backend in ("serial", "process"):
        result = ParallelSimulation(
            factory,
            factory_kwargs={"sanitize": True},
            n_slaves=n_slaves,
            chunk_size=chunk_size,
            backend=backend,
            max_rounds=max_rounds,
        ).run()
        if result.slave_digests is None:
            raise SanitizerError(
                f"{backend} backend returned no slave digests; the "
                "factory must forward sanitize=True to Experiment"
            )
        per_backend[backend] = result.slave_digests
    digests = {}
    mismatched = []
    for slave_id, (serial, process) in enumerate(
        zip(per_backend["serial"], per_backend["process"])
    ):
        digests[f"serial-slave-{slave_id}"] = serial
        digests[f"process-slave-{slave_id}"] = process
        if (
            serial.event_digest != process.event_digest
            or serial.events_hashed != process.events_hashed
        ):
            mismatched.append(slave_id)
    matched = not mismatched
    details = (
        f"all {n_slaves} slave event streams identical across backends"
        if matched
        else f"slave(s) {mismatched} diverge between serial and process "
        "backends"
    )
    return SanitizerCheck(
        name="backend-determinism",
        matched=matched,
        digests=digests,
        details=details,
    )
