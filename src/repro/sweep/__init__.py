"""Batched multi-experiment orchestration (sweeps).

Every figure in the paper is a *sweep* — a family of experiments over
load points, Cv values, or cluster sizes.  This package turns that
pattern into infrastructure:

- :class:`SweepSpec` — a named parameter grid (``axes``, their cross
  product, or an explicit ``grid``) over experiment configs, factory
  callables, or plain task callables; every point gets a seed from the
  :func:`repro.faults.recovery.derive_seed` lineage and a canonical
  content digest.
- :class:`SweepRunner` — executes the points over a
  :class:`repro.parallel.pool.WorkerPool` (persistent forked or remote
  workers, or one worker in-process), serving completed points from a
  content-addressed :class:`SweepCache` so edits recompute only what
  changed.

See ``docs/sweeps.md`` for the spec format and the caching /
determinism / fault-tolerance contracts.
"""

from repro.sweep.cache import CACHE_FORMAT, CacheError, SweepCache
from repro.sweep.runner import (
    BACKENDS,
    PointResult,
    SweepResult,
    SweepRunner,
    payload_problem,
    run_point,
)
from repro.sweep.spec import (
    SweepError,
    SweepPoint,
    SweepSpec,
    apply_params,
    callable_ref,
    canonical,
    canonical_json,
    content_digest,
    resolve_callable,
)

__all__ = [
    "BACKENDS",
    "CACHE_FORMAT",
    "CacheError",
    "PointResult",
    "SweepCache",
    "SweepError",
    "SweepPoint",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "apply_params",
    "callable_ref",
    "canonical",
    "canonical_json",
    "content_digest",
    "payload_problem",
    "resolve_callable",
    "run_point",
]
