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

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(globals(), {
    "CACHE_FORMAT": "repro.sweep.cache",
    "CacheError": "repro.sweep.cache",
    "SweepCache": "repro.sweep.cache",
    "BACKENDS": "repro.sweep.runner",
    "PointResult": "repro.sweep.runner",
    "SweepResult": "repro.sweep.runner",
    "SweepRunner": "repro.sweep.runner",
    "payload_problem": "repro.sweep.runner",
    "run_point": "repro.sweep.runner",
    "SweepError": "repro.sweep.spec",
    "SweepPoint": "repro.sweep.spec",
    "SweepSpec": "repro.sweep.spec",
    "apply_params": "repro.sweep.spec",
    "callable_ref": "repro.sweep.spec",
    "canonical": "repro.sweep.spec",
    "canonical_json": "repro.sweep.spec",
    "content_digest": "repro.sweep.spec",
    "resolve_callable": "repro.sweep.spec",
})
