"""repro.faults — fault injection, recovery policy, and checkpointing.

BigHouse's headline scaling result rests on the master/slave protocol
surviving long multi-machine runs; this package makes mid-run failure a
first-class, *testable* input instead of an operational surprise:

- :mod:`~repro.faults.plan` — :class:`FaultPlan`, a seeded,
  deterministic schedule of injected failures (kill a slave at round N,
  hang its pipe, drop or corrupt a report) so chaos runs replay
  bit-identically under the determinism sanitizer;
- :mod:`~repro.faults.injector` — the slave-side hook object that
  executes a plan inside the slave loop (real ``os._exit`` / sleeps in
  a slave process; the serial backend's inline transport substitutes
  its own exit and sleep, and the master cannot tell the difference);
- :mod:`~repro.faults.netplan` — :class:`NetFaultPlan`, the network
  sibling of FaultPlan: seeded frame-boundary faults (delay, drop,
  duplicate, corrupt, half-open partition, agent crash) applied by
  :class:`~repro.parallel.chaos.ChaosTransport`;
- :mod:`~repro.faults.recovery` — :class:`RespawnPolicy` (exponential
  backoff + deterministic jitter, per-slave and total restart budgets),
  :class:`SupervisionPolicy` (fleet floor, degradation threshold, and
  overall deadline for graceful degradation), and
  :class:`SeedLineage`, the generation-aware seed registry that
  guarantees a replacement slave draws a fresh unique stream;
- :mod:`~repro.faults.checkpoint` — atomic JSON-lines experiment
  snapshots (merged histogram state, per-slave work logs, seed lineage,
  round counter) and their reader, powering ``repro run --resume``.

See docs/robustness.md for the fault model and recovery semantics.
"""

from repro.faults.checkpoint import (
    CheckpointError,
    CheckpointState,
    read_checkpoint,
    write_checkpoint,
)
from repro.faults.injector import FaultInjector
from repro.faults.netplan import NET_FAULT_KINDS, NetFaultPlan, NetFaultSpec
from repro.faults.plan import FAULT_KINDS, FaultError, FaultPlan, FaultSpec
from repro.faults.recovery import (
    RespawnPolicy,
    SeedLineage,
    SupervisionError,
    SupervisionPolicy,
    backoff_delay,
    derive_seed,
)

__all__ = [
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "CheckpointError",
    "CheckpointState",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "NetFaultPlan",
    "NetFaultSpec",
    "RespawnPolicy",
    "SeedLineage",
    "SupervisionError",
    "SupervisionPolicy",
    "backoff_delay",
    "derive_seed",
    "read_checkpoint",
    "write_checkpoint",
]
