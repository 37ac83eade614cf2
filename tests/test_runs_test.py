"""Unit tests for the runs-up independence test and lag search."""

import numpy as np
import pytest

from repro.core.runs_test import (
    INCONCLUSIVE,
    KNUTH_B,
    MAX_TIE_FRACTION,
    MIN_RUNS_SAMPLE,
    RUNS_UP_DOF,
    _runs_up_critical,
    find_lag,
    runs_up_counts,
    runs_up_passes,
    runs_up_statistic,
    runs_up_test,
    select_lag,
    tie_fraction,
)


def ar1(rng, n, rho=0.95):
    """Strongly autocorrelated AR(1) sequence."""
    noise = rng.normal(size=n)
    x = np.zeros(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i]
    return x


class TestRunCounts:
    def test_known_sequence(self):
        # Runs: [1,2,3] (len 3), [2] is start of [2,5] (len 2), [1] (len 1)
        counts = runs_up_counts([1, 2, 3, 2, 5, 1])
        assert counts[2] == 1  # one run of length 3
        assert counts[1] == 1  # one run of length 2
        assert counts[0] == 1  # one run of length 1

    def test_monotone_sequence_one_long_run(self):
        counts = runs_up_counts(list(range(100)))
        assert counts[5] == 1  # capped at >= 6
        assert counts[:5].sum() == 0

    def test_ties_break_runs(self):
        counts = runs_up_counts([1, 1, 1])
        assert counts[0] == 3

    def test_empty_and_singleton(self):
        assert runs_up_counts([]).sum() == 0
        assert runs_up_counts([7]).sum() == 1

    def test_total_runs_conserved(self, rng):
        values = rng.random(1000)
        counts = runs_up_counts(values)
        # Number of runs = number of descents + 1
        descents = np.sum(values[1:] <= values[:-1])
        assert counts.sum() == descents + 1

    def test_knuth_b_expected_runs_per_observation(self):
        # Under independence the expected number of runs per observation
        # is 1/2 (mean ascending-run length is 2): the b_i must sum to it.
        assert KNUTH_B.sum() == pytest.approx(0.5)
        assert np.all(KNUTH_B > 0)


class TestStatistic:
    def test_iid_passes_most_of_the_time(self, rng):
        passes = sum(
            runs_up_passes(rng.exponential(size=5000)) for _ in range(40)
        )
        assert passes >= 32  # ~95% expected; allow slack

    def test_iid_statistic_near_dof(self, rng):
        values = [runs_up_statistic(rng.exponential(size=5000)) for _ in range(60)]
        assert 4.0 < np.mean(values) < 9.0  # chi2(6) mean is 6

    def test_autocorrelated_fails(self, rng):
        assert not runs_up_passes(ar1(rng, 5000))

    def test_monotone_fails_hard(self):
        assert not runs_up_passes(np.arange(5000, dtype=float))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            runs_up_statistic(np.zeros(MIN_RUNS_SAMPLE - 1))

    def test_bad_significance_rejected(self, rng):
        with pytest.raises(ValueError):
            runs_up_passes(rng.random(100), significance=0.0)

    def test_critical_value_equals_scipy_stats_bit_for_bit(self):
        # src/ calls scipy.special directly to keep scipy.stats out of
        # start-up; the reference may import it.
        from scipy import stats

        levels = list(np.linspace(0.5, 0.9999, 400)) + [0.9, 0.95, 0.99, 0.999]
        for level in levels:
            significance = 1.0 - float(level)
            assert _runs_up_critical(significance) == float(
                stats.chi2.ppf(1.0 - significance, RUNS_UP_DOF)
            )


class TestFindLag:
    def test_iid_needs_no_lag(self, rng):
        # The runs-up test has a 5% false-rejection rate by construction,
        # so judge over several independent samples.
        lags = [find_lag(rng.exponential(size=5000)) for _ in range(10)]
        assert sum(lag == 1 for lag in lags) >= 7
        assert max(lags) <= 5

    def test_autocorrelated_needs_spacing(self, rng):
        lag = find_lag(ar1(rng, 5000))
        assert lag > 1

    def test_spaced_subsequence_actually_passes(self, rng):
        sample = ar1(rng, 5000)
        lag = find_lag(sample)
        if lag < len(sample) // MIN_RUNS_SAMPLE:  # a passing lag was found
            assert runs_up_passes(sample[::lag])

    def test_fallback_when_nothing_passes(self, rng):
        # Pathologically correlated: a slow sine is never independent.
        sample = np.sin(np.linspace(0, 20, 5000))
        lag = find_lag(sample, max_lag=10)
        assert 1 <= lag <= 10

    def test_sample_too_small_rejected(self, rng):
        with pytest.raises(ValueError):
            find_lag(rng.random(10))

    def test_bad_max_lag_rejected(self, rng):
        with pytest.raises(ValueError):
            find_lag(rng.random(5000), max_lag=0)


def misleading_monotone(n=4096, seed=7):
    """Monotone non-decreasing sequence that *passed* the naive test.

    Strictly increasing data is one long run — a decisive FAIL.  But if
    the long ascents are broken only by ties, and the tie positions are
    drawn so the resulting run lengths follow the KNUTH_B expectation,
    the naive chi-square verdict is a clean PASS on a sequence with
    total serial dependence.  This is the regression case behind the
    MAX_TIE_FRACTION inconclusive regime.
    """
    rng = np.random.default_rng(seed)
    values = []
    value = 0.0
    first = True
    while len(values) < n:
        length = int(rng.choice(np.arange(1, 7), p=KNUTH_B / KNUTH_B.sum()))
        if first:
            for _ in range(length):
                value += 1.0
                values.append(value)
            first = False
        else:
            values.append(value)  # the tie ends the previous run
            for _ in range(max(0, length - 1)):
                value += 1.0
                values.append(value)
    return np.asarray(values[:n])


class TestInconclusiveRegimes:
    def test_short_sequence_is_inconclusive_not_a_verdict(self, rng):
        result = runs_up_test(rng.random(MIN_RUNS_SAMPLE - 1))
        assert result.outcome == INCONCLUSIVE
        assert not result.passed
        assert not result.conclusive
        assert "short" in result.reason

    def test_constant_sequence_is_inconclusive(self):
        result = runs_up_test([2.0] * 500)
        assert result.outcome == INCONCLUSIVE
        assert result.tie_fraction == 1.0

    def test_misleading_monotone_with_ties_is_inconclusive(self):
        # Regression: pre-fix, runs_up_passes() returned True on this
        # totally dependent sequence (V ~ 8.4 < critical 12.6).
        sequence = misleading_monotone()
        assert tie_fraction(sequence) > MAX_TIE_FRACTION
        result = runs_up_test(sequence)
        assert result.outcome == INCONCLUSIVE
        assert not runs_up_passes(sequence)

    def test_iid_sequence_is_conclusive(self, rng):
        result = runs_up_test(rng.exponential(size=5000))
        assert result.conclusive
        assert result.statistic is not None

    def test_tie_fraction_measurement(self):
        assert tie_fraction([1.0, 1.0, 2.0, 3.0]) == pytest.approx(1 / 3)
        assert tie_fraction([1.0]) == 0.0


class TestSelectLag:
    def test_misleading_sequence_never_accepts_lag_one(self):
        # Regression: find_lag() returned 1 here pre-fix; the lag must
        # grow instead of accepting an inconclusive tie-heavy pass.
        selection = select_lag(misleading_monotone(), max_lag=10)
        assert selection.lag > 1
        assert not selection.conclusive

    def test_small_sample_grows_to_max_lag_without_raising(self, rng):
        selection = select_lag(rng.random(10), max_lag=25)
        assert selection.lag == 25
        assert not selection.conclusive
        assert "too small" in selection.reason

    def test_iid_selects_small_conclusive_lag(self, rng):
        selection = select_lag(rng.exponential(size=5000))
        assert selection.conclusive
        assert selection.lag <= 5

    def test_find_lag_still_raises_on_small_sample(self, rng):
        # The legacy entry point keeps its contract; select_lag is the
        # non-raising calibration-phase API.
        with pytest.raises(ValueError):
            find_lag(rng.random(10))
