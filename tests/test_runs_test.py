"""Unit tests for the runs-up independence test and lag search."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.runs_test import (
    FAIL,
    INCONCLUSIVE,
    KNUTH_B,
    MAX_TIE_FRACTION,
    MIN_RUNS_SAMPLE,
    PASS,
    RUNS_UP_DOF,
    _runs_up_tail,
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


def reference_counts(sequence):
    """The scalar walk :func:`runs_up_counts` replaced, kept as its
    reference: one Python step per observation."""
    values = np.asarray(sequence, dtype=float)
    counts = np.zeros(6, dtype=np.int64)
    if values.size == 0:
        return counts
    run_length = 1
    for up in values[1:] > values[:-1]:
        if up:
            run_length += 1
        else:
            counts[min(run_length, 6) - 1] += 1
            run_length = 1
    counts[min(run_length, 6) - 1] += 1
    return counts


def climb(steps):
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN we want
        return np.cumsum(steps).tolist()


#: Any floats at all (NaN and both infinities included), drawn so that
#: ties are common ...
_TIED = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, 1.0, 2.0, float("nan"), float("inf"),
                         float("-inf")]),
    ),
    max_size=200,
)
#: ... and walks whose steps are mostly upward, so that ascents longer
#: than six (the capped class) are common too.
_CLIMBING = st.lists(
    st.sampled_from([1.0, 1.0, 1.0, 1.0, 0.5, 0.0, -7.0, float("inf"),
                     float("-inf"), float("nan")]),
    max_size=200,
).map(climb)


class TestRunCounts:
    @given(st.one_of(_TIED, _CLIMBING))
    @example([])
    @example([3.0])
    @example([float("nan")])
    @example(list(range(6)))
    @example(list(range(7)) + [0.0])
    @example([2.0, 2.0, 2.0])
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_walk(self, sequence):
        counts = runs_up_counts(sequence)
        assert counts.dtype == np.int64
        assert counts.shape == (6,)
        assert counts.tolist() == reference_counts(sequence).tolist()

    @pytest.mark.parametrize("size", [2, 3, 10, 100, 5000])
    def test_equals_the_scalar_walk_at_calibration_sizes(self, rng, size):
        continuous = rng.exponential(size=size)
        tied = np.floor(continuous * 3.0)
        for values in (continuous, tied, np.sort(continuous)):
            assert (runs_up_counts(values).tolist()
                    == reference_counts(values).tolist())

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

    def test_vanishing_significance_still_rejects(self):
        # Regression: the critical value used to be chi2.ppf(1 - 1e-17)
        # = chi2.ppf(1.0) = inf, which passed every sequence.
        monotone = np.arange(5000, dtype=float)
        assert runs_up_test(monotone, significance=1e-17).outcome == FAIL
        assert not runs_up_passes(monotone, significance=1e-300)


def mm1_waits(rng, n, rho):
    """Lindley waiting times of an M/M/1: a point mass at zero (ties)."""
    steps = rng.exponential(rho, size=n) - rng.exponential(1.0, size=n)
    walk = np.concatenate(([0.0], np.cumsum(steps)))
    return (walk - np.minimum.accumulate(walk))[1:]


@pytest.fixture(scope="module")
def verdict_corpus():
    """2 400 seeded sequences: i.i.d., AR(1), and M/M/1 waits with ties."""
    rng = np.random.default_rng(20120401)
    corpus = []
    for _ in range(300):
        corpus.append(rng.exponential(size=1500))
        corpus.append(rng.normal(size=1500))
    for phi in (0.2, 0.5, 0.8, 0.95):
        corpus.extend(ar1(rng, 1500, phi) for _ in range(250))
    for rho in (0.3, 0.5, 0.7, 0.9):
        corpus.extend(mm1_waits(rng, 1500, rho) for _ in range(200))
    return corpus


def reference_outcome(values, critical):
    """The verdict as the parent commit reached it: V against the
    chi-square(6) critical value scipy computes."""
    if values.size < MIN_RUNS_SAMPLE:
        return INCONCLUSIVE
    if tie_fraction(values) > MAX_TIE_FRACTION:
        return INCONCLUSIVE
    return PASS if runs_up_statistic(values) <= critical else FAIL


def reference_lag(values, critical, max_lag=50):
    largest_testable = 1
    for lag in range(1, max_lag + 1):
        spaced = values[::lag]
        if spaced.size < MIN_RUNS_SAMPLE:
            break
        largest_testable = lag
        if reference_outcome(spaced, critical) == PASS:
            return lag
    return largest_testable


class TestVerdictAgainstScipy:
    """src/ compares the chi-square(6) upper tail of V with the
    significance; scipy's quantile of the same distribution must reach
    the same verdict and the same lag on every sequence."""

    @pytest.mark.parametrize("significance", [0.10, 0.05, 0.01])
    def test_outcome_and_lag_equal_the_scipy_reference(
        self, verdict_corpus, significance
    ):
        from scipy import stats

        critical = float(stats.chi2.ppf(1.0 - significance, RUNS_UP_DOF))
        assert len(verdict_corpus) >= 2000
        outcomes = []
        for values in verdict_corpus:
            result = runs_up_test(values, significance)
            assert result.outcome == reference_outcome(values, critical)
            assert (select_lag(values, significance=significance).lag
                    == reference_lag(values, critical))
            outcomes.append(result.outcome)
        # The corpus decides nothing unless every verdict occurs often.
        for outcome in (PASS, FAIL, INCONCLUSIVE):
            assert outcomes.count(outcome) >= 100

    def test_tail_equals_scipy_chi2_sf_on_the_old_level_grid(self):
        # The parent pinned its critical value to chi2.ppf on these 404
        # levels; the tail form is held to chi2.sf at the same points.
        from scipy import stats

        levels = list(np.linspace(0.5, 0.9999, 400)) + [0.9, 0.95, 0.99, 0.999]
        for level in levels:
            critical = float(stats.chi2.ppf(float(level), RUNS_UP_DOF))
            assert _runs_up_tail(critical) == pytest.approx(
                float(stats.chi2.sf(critical, RUNS_UP_DOF)), rel=1e-13
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
