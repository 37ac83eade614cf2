"""Statistical acceptance tests: the sweep engine vs closed-form theory.

Drives :mod:`repro.validation.acceptance` — a `repro.sweep` grid over
M/M/1, M/M/k, and M/G/1 (Pollaczek–Khinchine) (rho, Cv) points — and
asserts simulated mean/95th/99th-percentile response times land inside
CI-aware budgets versus `repro.theory` closed forms.  No bare
relative-error thresholds: every case's budget is tolerance·theory
*plus the statistics package's own confidence half-width*, so the test
is exactly as strict as the estimator claims to be.

The smoke subset always runs, at the seed and accuracy its committed
table (``benchmarks/results/acceptance_grid.txt``, which CI publishes as
an artifact) was recorded at, and must reproduce that table exactly;
the full grid is ``slow`` and runs when ``REPRO_TEST_FULL=1``.
Re-record both committed smoke tables only on purpose, with
``PYTHONPATH=src python -m tests.test_acceptance_theory``.
"""

import dataclasses
import functools
import os
from pathlib import Path

import pytest

from repro.validation import FULL_POINTS, SMOKE_POINTS, run_acceptance
from repro.validation.acceptance import (
    _SMOKE_GRIDS,
    _run_smoke,
    format_acceptance_table,
    write_acceptance_table,
)

FULL_SCALE = os.environ.get("REPRO_TEST_FULL") == "1"
RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

#: The committed verdict table of each smoke grid.
TABLES = {
    "acceptance-theory": RESULTS / "acceptance_grid.txt",
    "acceptance-multiserver": RESULTS / "acceptance_multiserver.txt",
}

#: The smoke grid's fixed spec seed and accuracy: the whole grid is
#: reproducible bit-for-bit.
GRID = _SMOKE_GRIDS["acceptance-theory"]

#: Each smoke grid runs once per session, however many tests read it.
smoke_run = functools.lru_cache(maxsize=None)(_run_smoke)


def checked_smoke_run(name):
    """Smoke grid ``name``'s run, once its table is the committed one:
    a stale committed table fails instead of going unnoticed."""
    result, cases = smoke_run(name)
    assert format_acceptance_table(cases) == TABLES[name].read_text(), (
        f"{TABLES[name].name} is stale; re-record it with "
        "`PYTHONPATH=src python -m tests.test_acceptance_theory`"
    )
    return result, cases


def assert_cases_pass(cases, result):
    assert result.converged, "acceptance sweep did not converge"
    failures = [
        f"{case.name}: sim={case.simulated:.6g} theory={case.theoretical:.6g} "
        f"error={case.relative_error:.2%} half_width={case.half_width:.3g}"
        for case in cases
        if not case.passed
    ]
    assert not failures, "theory mismatch:\n" + "\n".join(failures)


class TestSmokeSubset:
    """One point per model family — always on."""

    @pytest.fixture(scope="class")
    def smoke(self):
        return checked_smoke_run("acceptance-theory")

    def test_grid_against_closed_forms(self, smoke):
        result, cases = smoke
        assert_cases_pass(cases, result)

    def test_covers_all_three_model_families(self, smoke):
        _, cases = smoke
        names = " ".join(case.name for case in cases)
        assert "M/M/1" in names and "M/M/4" in names and "M/G/1" in names

    def test_covers_deterministic_service_and_processor_sharing(self, smoke):
        _, cases = smoke
        names = [case.name for case in cases]
        assert "M/G/1 Cv=0 rho=0.5 mean waiting" in names
        assert "M/G/1-PS Cv=3 rho=0.5 mean response" in names

    def test_covers_both_engines(self, smoke):
        _, cases = smoke
        fastpath_cases = [c for c in cases if "[fastpath]" in c.name]
        assert len(fastpath_cases) >= 2, (
            "smoke subset must cross-check the fastpath engine"
        )

    def test_quantile_cases_present_with_cis(self, smoke):
        _, cases = smoke
        quantile_cases = [c for c in cases if "p95" in c.name or
                          "p99" in c.name]
        # Two per M/M/1 point: the event-engine one and its fastpath twin.
        assert len(quantile_cases) == 4
        for case in quantile_cases:
            assert case.ci is not None and case.half_width > 0

    def test_mean_cases_carry_cis(self, smoke):
        _, cases = smoke
        for case in cases:
            assert case.ci is not None, f"{case.name} lost its CI"

    def test_grid_is_reproducible(self):
        first, _ = run_acceptance(
            SMOKE_POINTS[:1], accuracy=GRID.accuracy, seed=GRID.seed
        )
        second, _ = run_acceptance(
            SMOKE_POINTS[:1], accuracy=GRID.accuracy, seed=GRID.seed
        )
        assert first.digests() == second.digests()


class TestReport:
    """``python -m repro.validation`` prints both committed smoke tables."""

    @pytest.fixture
    def report(self, monkeypatch):
        from repro.validation import __main__ as report

        monkeypatch.setattr(report, "_run_smoke", smoke_run)
        return report

    def test_prints_the_committed_tables(self, report, capsys):
        assert report.main() == 0
        out = capsys.readouterr().out
        for name in _SMOKE_GRIDS:
            assert TABLES[name].read_text() in out, name

    def test_a_failing_case_exits_one(self, report, monkeypatch):
        result, cases = smoke_run("acceptance-theory")
        wrong = dataclasses.replace(cases[0], simulated=0.0)
        monkeypatch.setattr(report, "_run_smoke", lambda _: (result, [wrong]))
        assert report.main() == 1


@pytest.mark.slow
@pytest.mark.skipif(not FULL_SCALE, reason="set REPRO_TEST_FULL=1")
class TestFullGrid:
    """The full (rho, Cv) acceptance grid across all model families."""

    def test_full_grid_against_closed_forms(self):
        result, cases = run_acceptance(
            FULL_POINTS, accuracy=GRID.accuracy, seed=GRID.seed,
            backend="pool", jobs=4,
        )
        assert len(result.points) == len(FULL_POINTS)
        assert_cases_pass(cases, result)


if __name__ == "__main__":  # re-record the committed smoke tables
    for grid_name, path in TABLES.items():
        write_acceptance_table(_run_smoke(grid_name)[1], path)
