"""repro.faults — fault injection, recovery policy, and checkpointing.

BigHouse's headline scaling result rests on the master/slave protocol
surviving long multi-machine runs; this package makes mid-run failure a
first-class, *testable* input instead of an operational surprise:

- :mod:`~repro.faults.plan` — :class:`FaultPlan`, one deterministic
  schedule of injected failures so chaos runs replay bit-identically.
  Its worker kinds break a worker (kill it at round N, hang it, drop or
  corrupt its report); its frame kinds break the wire to it (delay,
  drop, duplicate or corrupt a frame, partition the link, crash the
  agent).  A run takes the one plan through ``fault_plan=`` (CLI:
  ``--chaos``) and routes each kind itself;
- :mod:`~repro.faults.injector` — the slave-side hook object that
  executes a plan's worker kinds inside the slave loop (a kill raises
  ``SystemExit``, which ends only the worker process or thread; the
  serial backend's inline transport catches it and substitutes its own
  sleep, and the master cannot tell the difference).  The frame kinds
  are applied by the framed channel of :mod:`repro.parallel.transport`;
- :mod:`~repro.faults.recovery` — :class:`RespawnPolicy` (exponential
  backoff + deterministic jitter, per-slave and total restart budgets),
  :class:`SupervisionPolicy` (fleet floor and overall deadline for
  graceful degradation), and
  :class:`SeedLineage`, the generation-aware seed registry that
  guarantees a replacement slave draws a fresh unique stream;
- :mod:`~repro.faults.checkpoint` — atomic JSON-lines experiment
  snapshots (merged histogram state, per-slave work logs, seed lineage,
  round counter) and their reader, powering ``repro run --resume``.

See docs/robustness.md for the fault model and recovery semantics.
"""

from repro import _lazy_exports

__all__ = [
    "FAULT_KINDS",
    "CheckpointError",
    "CheckpointState",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RespawnPolicy",
    "SeedLineage",
    "SupervisionError",
    "SupervisionPolicy",
    "backoff_delay",
    "derive_seed",
    "read_checkpoint",
    "write_checkpoint",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "CheckpointError": "repro.faults.checkpoint",
    "CheckpointState": "repro.faults.checkpoint",
    "read_checkpoint": "repro.faults.checkpoint",
    "write_checkpoint": "repro.faults.checkpoint",
    "FaultInjector": "repro.faults.injector",
    "FAULT_KINDS": "repro.faults.plan",
    "FaultError": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "FaultSpec": "repro.faults.plan",
    "RespawnPolicy": "repro.faults.recovery",
    "SeedLineage": "repro.faults.recovery",
    "SupervisionError": "repro.faults.recovery",
    "SupervisionPolicy": "repro.faults.recovery",
    "backoff_delay": "repro.faults.recovery",
    "derive_seed": "repro.faults.recovery",
})
