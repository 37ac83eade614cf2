"""Self-validation harness: simulation vs closed-form theory.

The paper's credibility argument is validation (Section 3: "case studies
that have been validated against real hardware").  Without the authors'
hardware we validate against mathematics instead: for every queueing
model with a known closed form, run the full BigHouse pipeline and
compare its converged estimate to the exact answer.

Every comparison is a row of an acceptance grid
(:mod:`repro.validation.acceptance`), whose model families are one
record each: the record builds the station and names every (statistic,
ground truth) pair a point is judged on, the truths coming from
:mod:`repro.theory`.  :func:`run_acceptance` returns one
:class:`ValidationCase` per statistic, ``python -m repro.validation``
prints both always-on smoke grids as a report, and the test suite
asserts every case passes and that the committed tables are current.
"""

from repro import _lazy_exports

__all__ = [
    "FULL_POINTS",
    "MULTISERVER_FULL_POINTS",
    "MULTISERVER_SMOKE_POINTS",
    "SMOKE_POINTS",
    "ValidationCase",
    "build_acceptance_spec",
    "evaluate",
    "format_acceptance_table",
    "queue_point_factory",
    "run_acceptance",
    "write_acceptance_table",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "FULL_POINTS": "repro.validation.acceptance",
    "MULTISERVER_FULL_POINTS": "repro.validation.acceptance",
    "MULTISERVER_SMOKE_POINTS": "repro.validation.acceptance",
    "SMOKE_POINTS": "repro.validation.acceptance",
    "build_acceptance_spec": "repro.validation.acceptance",
    "evaluate": "repro.validation.acceptance",
    "format_acceptance_table": "repro.validation.acceptance",
    "queue_point_factory": "repro.validation.acceptance",
    "run_acceptance": "repro.validation.acceptance",
    "write_acceptance_table": "repro.validation.acceptance",
    "ValidationCase": "repro.validation.acceptance",
})
