"""Runs-up independence test (Knuth, TAOCP Vol. 2, §3.3.2G).

BigHouse's calibration phase must pick a lag spacing ``l`` such that
keeping only every ``l``-th observation from the (autocorrelated) output
sequence yields a sample that can be treated as independent (Section 2.3,
citing [10, 11, 20]).  The runs-up test is the classic tool: it counts
maximal strictly-ascending runs of lengths 1..6+ and compares the counts
against their expectation under independence using Knuth's quadratic-form
statistic, which is asymptotically chi-square with 6 degrees of freedom.

An autocorrelated sequence (e.g. successive response times from a busy
queue) produces too few short runs — neighbours tend to move together —
and fails the test; spacing the observations out restores independence.

**Inconclusive results.**  The chi-square approximation assumes a few
thousand observations of *continuous* data.  Two degenerate regimes
produce answers that look authoritative but are not:

- sequences shorter than :data:`MIN_RUNS_SAMPLE` — the asymptotic null
  distribution simply does not apply;
- tie-heavy sequences (adjacent-equality fraction above
  :data:`MAX_TIE_FRACTION`) — ties end runs under the strict-ascent
  convention, and at high tie rates the run-length distribution is
  driven by the tie structure rather than by independence.  A pure
  upward trend whose long runs are broken only by ties can *pass* the
  test outright (see ``tests/test_runs_test.py`` for the construction).

:func:`runs_up_test` therefore reports a three-way outcome (pass /
fail / inconclusive), and :func:`select_lag` — the calibration-phase
entry point — only accepts a lag on a *conclusive* pass, growing the
lag conservatively otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: Knuth's quadratic-form coefficients (TAOCP §3.3.2, Eq. 3.3.2-14).
KNUTH_A = np.array(
    [
        [4529.4, 9044.9, 13568.0, 18091.0, 22615.0, 27892.0],
        [9044.9, 18097.0, 27139.0, 36187.0, 45234.0, 55789.0],
        [13568.0, 27139.0, 40721.0, 54281.0, 67852.0, 83685.0],
        [18091.0, 36187.0, 54281.0, 72414.0, 90470.0, 111580.0],
        [22615.0, 45234.0, 67852.0, 90470.0, 113262.0, 139476.0],
        [27892.0, 55789.0, 83685.0, 111580.0, 139476.0, 172860.0],
    ]
)

#: Expected fraction of runs of length 1..5 and >= 6 under independence.
KNUTH_B = np.array(
    [1.0 / 6, 5.0 / 24, 11.0 / 120, 19.0 / 720, 29.0 / 5040, 1.0 / 840]
)

#: Degrees of freedom of the runs-up statistic.
RUNS_UP_DOF = 6

#: Minimum sequence length for the chi-square approximation to be usable.
MIN_RUNS_SAMPLE = 64

#: Adjacent-equality fraction above which the runs-up test is declared
#: inconclusive: the strict-ascent convention makes heavily tied data's
#: run-length distribution reflect the tie structure, not independence.
#: Real queueing outputs stay well below this (waiting times at moderate
#: load measure ~0.1-0.25 even with a point mass at zero); constant
#: sequences sit at 1.0 and trend-with-ties pathologies near 0.5.
MAX_TIE_FRACTION = 0.4

#: Outcomes of :func:`runs_up_test`.
PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RunsUpResult:
    """Three-way outcome of one runs-up independence test."""

    outcome: str  # PASS / FAIL / INCONCLUSIVE
    n: int
    tie_fraction: float
    statistic: Optional[float] = None
    reason: str = ""

    @property
    def passed(self) -> bool:
        """True only for a conclusive pass."""
        return self.outcome == PASS

    @property
    def conclusive(self) -> bool:
        """False when the chi-square approximation was not applicable."""
        return self.outcome != INCONCLUSIVE


@dataclass(frozen=True)
class LagSelection:
    """Outcome of the calibration-phase lag search (:func:`select_lag`)."""

    lag: int
    conclusive: bool
    reason: str
    #: Number of lags whose spaced subsequence produced a conclusive
    #: (pass or fail) runs-up verdict during the search.
    tested: int = 0


def tie_fraction(sequence: Sequence[float]) -> float:
    """Fraction of adjacent pairs that are exactly equal."""
    values = np.asarray(sequence, dtype=float)
    if values.size < 2:
        return 0.0
    return float(np.mean(values[1:] == values[:-1]))


def runs_up_counts(sequence: Sequence[float]) -> np.ndarray:
    """Count maximal ascending runs of length 1..5 and >= 6.

    A run ends whenever the next value does not strictly increase.  Ties
    end the run (the test targets continuous data where ties have measure
    zero, but simulation outputs can repeat, e.g. zero waiting times).
    """
    values = np.asarray(sequence, dtype=float)
    if values.size == 0:
        return np.zeros(6, dtype=np.int64)
    # A run ends at every non-ascent and at the last value; its length
    # is the distance back to the previous end.
    non_ascents = np.flatnonzero(~(values[1:] > values[:-1]))
    ends = np.concatenate(([-1], non_ascents, [values.size - 1]))
    return np.bincount(np.minimum(np.diff(ends), 6) - 1, minlength=6)


def runs_up_statistic(sequence: Sequence[float]) -> float:
    """Knuth's V statistic; ~ chi-square(6) under independence."""
    values = np.asarray(sequence, dtype=float)
    n = values.size
    if n < MIN_RUNS_SAMPLE:
        raise ValueError(
            f"runs-up test needs >= {MIN_RUNS_SAMPLE} observations, got {n}"
        )
    counts = runs_up_counts(values).astype(float)
    deviation = counts - n * KNUTH_B
    return float(deviation @ KNUTH_A @ deviation) / n


def _runs_up_tail(statistic: float) -> float:
    """``P(X > statistic)`` for ``X`` ~ chi-square(:data:`RUNS_UP_DOF`).

    With an even number of degrees of freedom ``2m`` the upper tail is
    elementary, ``e^(-v/2) * sum_{k<m} (v/2)^k / k!``; for the runs-up
    test's six that is ``e^(-v/2) * (1 + v/2 + v^2/8)``.  No level is
    out of reach (there is no ``1 - significance`` to round to 1.0) and
    nothing has to be imported to evaluate it (see
    :func:`repro.core.confidence.z_value`).
    """
    half = 0.5 * statistic
    return math.exp(-half) * (1.0 + half + 0.5 * half * half)


def runs_up_test(
    sequence: Sequence[float], significance: float = 0.05
) -> RunsUpResult:
    """Run the runs-up test with a defined inconclusive regime.

    Returns :data:`INCONCLUSIVE` (instead of a misleading chi-square
    verdict) when the sequence is shorter than :data:`MIN_RUNS_SAMPLE`
    or its adjacent-tie fraction exceeds :data:`MAX_TIE_FRACTION`;
    otherwise :data:`PASS` / :data:`FAIL` by the one-sided upper-tail
    chi-square(6) criterion (autocorrelation inflates V): the test fails
    when the probability of a V this large under independence
    (:func:`_runs_up_tail`) is below ``significance``.
    """
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must be in (0, 1), got {significance}")
    values = np.asarray(sequence, dtype=float)
    n = int(values.size)
    ties = tie_fraction(values)
    if n < MIN_RUNS_SAMPLE:
        return RunsUpResult(
            outcome=INCONCLUSIVE,
            n=n,
            tie_fraction=ties,
            reason=(
                f"sequence too short for the chi-square approximation "
                f"({n} < {MIN_RUNS_SAMPLE})"
            ),
        )
    if ties > MAX_TIE_FRACTION:
        return RunsUpResult(
            outcome=INCONCLUSIVE,
            n=n,
            tie_fraction=ties,
            reason=(
                f"tie fraction {ties:.2f} exceeds {MAX_TIE_FRACTION}; "
                "the continuous-data assumption is broken"
            ),
        )
    statistic = runs_up_statistic(values)
    tail = _runs_up_tail(statistic)
    return RunsUpResult(
        outcome=PASS if tail >= significance else FAIL,
        n=n,
        tie_fraction=ties,
        statistic=statistic,
        reason=(
            f"V={statistic:.2f}, chi2({RUNS_UP_DOF}) upper tail "
            f"{tail:.3g} vs significance {significance:g}"
        ),
    )


def runs_up_passes(sequence: Sequence[float], significance: float = 0.05) -> bool:
    """True only for a *conclusive* pass of the runs-up test.

    One-sided upper-tail test: autocorrelation inflates V, so we reject
    when V exceeds the chi-square(6) critical value at ``significance``.
    Tie-heavy sequences (see :data:`MAX_TIE_FRACTION`) are inconclusive
    and report False — they must not be treated as independent.  Too
    short a sequence raises, as :func:`runs_up_statistic` always has.
    """
    values = np.asarray(sequence, dtype=float)
    if values.size < MIN_RUNS_SAMPLE:
        raise ValueError(
            f"runs-up test needs >= {MIN_RUNS_SAMPLE} observations, "
            f"got {values.size}"
        )
    return runs_up_test(values, significance).passed


def select_lag(
    sample: Sequence[float],
    max_lag: int = 50,
    significance: float = 0.05,
    min_points: int = MIN_RUNS_SAMPLE,
) -> LagSelection:
    """Calibration-phase lag search with defined degenerate behaviour.

    Try ``l = 1, 2, ...`` and accept the first lag whose spaced
    subsequence ``sample[::l]`` yields a *conclusive* runs-up pass.  An
    inconclusive verdict (short subsequence, tie-heavy data) never
    accepts a lag — growing the spacing is the conservative response to
    not knowing, so:

    - no conclusive pass up to ``max_lag`` → the largest testable lag,
      flagged ``conclusive=False``;
    - a calibration sample too small to test at all → ``max_lag``
      itself, flagged ``conclusive=False`` (the caller configured a
      sample the test cannot certify; maximal spacing is the only
      defensible answer that does not abort the run).
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    values = np.asarray(sample, dtype=float)
    if values.size < min_points:
        return LagSelection(
            lag=max_lag,
            conclusive=False,
            reason=(
                f"calibration sample too small to test "
                f"({values.size} < {min_points}); grew lag to max_lag"
            ),
        )
    largest_testable = 1
    tested = 0
    for lag in range(1, max_lag + 1):
        spaced = values[::lag]
        if spaced.size < min_points:
            break
        largest_testable = lag
        result = runs_up_test(spaced, significance)
        if result.conclusive:
            tested += 1
            if result.passed:
                return LagSelection(
                    lag=lag,
                    conclusive=True,
                    reason=result.reason,
                    tested=tested,
                )
    return LagSelection(
        lag=largest_testable,
        conclusive=False,
        reason=(
            f"no conclusive runs-up pass up to lag {largest_testable} "
            f"({tested} conclusive verdicts); grew lag to the largest "
            "testable spacing"
        ),
        tested=tested,
    )


def find_lag(
    sample: Sequence[float],
    max_lag: int = 50,
    significance: float = 0.05,
    min_points: int = MIN_RUNS_SAMPLE,
) -> int:
    """Smallest lag ``l`` whose spaced subsequence passes the runs-up test.

    This is the calibration-phase computation: given the ~5000-observation
    calibration sample, try ``l = 1, 2, ...`` and return the first lag at
    which ``sample[::l]`` looks independent.  Only *conclusive* passes
    count (see :func:`runs_up_test`); if no lag up to ``max_lag``
    conclusively passes, the largest testable lag is returned — a
    conservative fallback mirroring the original implementation's
    behaviour of never aborting a simulation over calibration.  Callers
    that need the conclusiveness flag use :func:`select_lag`.
    """
    values = np.asarray(sample, dtype=float)
    if values.size < min_points:
        raise ValueError(
            f"calibration sample too small: {values.size} < {min_points}"
        )
    return select_lag(
        values, max_lag=max_lag, significance=significance,
        min_points=min_points,
    ).lag
