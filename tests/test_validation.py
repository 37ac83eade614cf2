"""Tests for the sim-vs-theory verdict rule.

The cases themselves are rows of the acceptance grids
(``tests/test_acceptance_theory.py``, ``tests/test_multiserver.py``).
"""

import pytest

from repro.validation import ValidationCase


class TestValidationCase:
    def test_relative_error(self):
        case = ValidationCase("x", simulated=1.05, theoretical=1.0,
                              tolerance=0.1, converged=True)
        assert case.relative_error == pytest.approx(0.05)
        assert case.passed

    def test_fails_outside_tolerance(self):
        case = ValidationCase("x", simulated=1.5, theoretical=1.0,
                              tolerance=0.1, converged=True)
        assert not case.passed

    def test_unconverged_never_passes(self):
        case = ValidationCase("x", simulated=1.0, theoretical=1.0,
                              tolerance=0.1, converged=False)
        assert not case.passed

    def test_zero_theory_edge(self):
        case = ValidationCase("x", simulated=0.2, theoretical=0.0,
                              tolerance=0.1, converged=True)
        assert case.relative_error == pytest.approx(0.2)

