"""Self-validation harness: simulation vs closed-form theory.

The paper's credibility argument is validation (Section 3: "case studies
that have been validated against real hardware").  Without the authors'
hardware we validate against mathematics instead: for every queueing
model with a known closed form, run the full BigHouse pipeline and
compare its converged estimate to the exact answer.

:func:`run_validation_suite` returns a list of :class:`ValidationCase`
rows; ``python -m repro.validation`` prints them as a report.  The test
suite asserts every case passes within its tolerance.
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
    "run_validation_suite",
    "theoretical_value",
    "validate_mm1",
    "validate_mmk",
    "validate_mg1",
    "validate_ps",
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
    "theoretical_value": "repro.validation.acceptance",
    "write_acceptance_table": "repro.validation.acceptance",
    "ValidationCase": "repro.validation.suite",
    "run_validation_suite": "repro.validation.suite",
    "validate_mg1": "repro.validation.suite",
    "validate_mm1": "repro.validation.suite",
    "validate_mmk": "repro.validation.suite",
    "validate_ps": "repro.validation.suite",
})
