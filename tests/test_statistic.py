"""Unit tests for the Statistic phase machine (Fig. 2)."""

import numpy as np
import pytest

from repro.core.convergence import judge
from repro.core.histogram import BinScheme
from repro.core.statistic import Phase, Statistic, StatisticError


def feed_iid(statistic, rng, n, scale=1.0):
    for _ in range(n):
        statistic.observe(scale * rng.exponential())


def make_stat(**overrides):
    kwargs = dict(
        name="metric",
        mean_accuracy=0.05,
        quantiles={0.95: 0.05},
        warmup_samples=50,
        calibration_samples=200,
        bins=100,
        min_accepted=50,
    )
    kwargs.update(overrides)
    return Statistic(**kwargs)


class TestConfiguration:
    def test_needs_some_criterion(self):
        with pytest.raises(StatisticError):
            Statistic("x", mean_accuracy=None, quantiles=None)

    def test_rejects_bad_accuracy(self):
        with pytest.raises(StatisticError):
            Statistic("x", mean_accuracy=1.5)
        with pytest.raises(StatisticError):
            Statistic("x", quantiles={0.95: 0.0})
        with pytest.raises(StatisticError):
            Statistic("x", quantiles={1.5: 0.05})

    def test_quantile_spec_forms(self):
        def pairs(quantiles):
            return Statistic("x", quantiles=quantiles).targets.quantile_targets

        assert pairs({0.9: 0.1}) == ((0.9, 0.1),)
        assert pairs([(0.9, 0.1)]) == ((0.9, 0.1),)
        assert pairs([0.9]) == ((0.9, 0.05),)
        assert pairs({0.99: 0.1, 0.5: 0.2}) == ((0.5, 0.2), (0.99, 0.1))

    def test_rejects_negative_warmup(self):
        with pytest.raises(StatisticError):
            Statistic("x", warmup_samples=-1)


class TestPhaseSequence:
    def test_full_lifecycle(self, rng):
        statistic = make_stat()
        assert statistic.phase is Phase.WARMUP
        feed_iid(statistic, rng, 50)
        assert statistic.phase is Phase.CALIBRATION
        feed_iid(statistic, rng, 200)
        assert statistic.phase is Phase.MEASUREMENT
        assert statistic.lag is not None
        assert statistic.histogram is not None
        feed_iid(statistic, rng, 50_000)
        assert statistic.phase is Phase.CONVERGED

    def test_warmup_observations_discarded(self, rng):
        statistic = make_stat()
        feed_iid(statistic, rng, 50)
        assert statistic.accepted == 0
        assert statistic.histogram is None

    def test_iid_input_gets_small_lag(self, rng):
        # 5% of i.i.d. calibrations fail the lag-1 runs-up test by design,
        # so only assert the lag stays small across a few instances.
        lags = []
        for _ in range(5):
            statistic = make_stat(calibration_samples=5000)
            feed_iid(statistic, rng, 50 + 5000)
            lags.append(statistic.lag)
        assert min(lags) == 1
        assert max(lags) <= 5

    def test_autocorrelated_input_gets_lag_above_one(self, rng):
        statistic = make_stat(calibration_samples=5000)
        # Warm up with anything
        feed_iid(statistic, rng, 50)
        value = 0.0
        for _ in range(5000):
            value = 0.97 * value + rng.normal()
            statistic.observe(value)
        assert statistic.lag > 1

    def test_lag_discards_observations(self, rng):
        statistic = make_stat()
        feed_iid(statistic, rng, 250)  # through calibration
        statistic.lag = 3  # force spacing
        before = statistic.accepted
        feed_iid(statistic, rng, 30)
        assert statistic.accepted - before == 10

    def test_converged_ignores_further_input(self, rng):
        statistic = make_stat(min_accepted=50)
        feed_iid(statistic, rng, 50 + 200 + 50_000)
        assert statistic.phase is Phase.CONVERGED
        accepted = statistic.accepted
        feed_iid(statistic, rng, 100)
        assert statistic.accepted == accepted


class TestWarmupBarrier:
    def test_standalone_lifts_itself(self, rng):
        statistic = make_stat()
        feed_iid(statistic, rng, 51)
        assert statistic.phase is Phase.CALIBRATION

    def test_controlled_stays_in_warmup(self, rng):
        statistic = make_stat()
        statistic.take_barrier_control()
        feed_iid(statistic, rng, 500)
        assert statistic.phase is Phase.WARMUP
        assert statistic.warm_ready

    def test_lift_transitions_immediately(self, rng):
        statistic = make_stat()
        statistic.take_barrier_control()
        feed_iid(statistic, rng, 500)
        statistic.lift_warmup_barrier()
        assert statistic.phase is Phase.CALIBRATION

    def test_cannot_take_control_after_warmup(self, rng):
        statistic = make_stat()
        feed_iid(statistic, rng, 300)
        with pytest.raises(StatisticError):
            statistic.take_barrier_control()


class TestConvergence:
    def test_deterministic_converges_at_floor(self, rng):
        statistic = make_stat(mean_accuracy=0.05, quantiles=None)
        for _ in range(50 + 200 + 200):
            statistic.observe(1.0)
        assert statistic.phase is Phase.CONVERGED
        assert statistic.accepted <= 2 * statistic.targets.min_accepted

    def test_high_variance_needs_more_samples(self, rng):
        tight = make_stat(quantiles=None, mean_accuracy=0.02)
        loose = make_stat(quantiles=None, mean_accuracy=0.2)
        feed_iid(tight, rng, 100_000)
        feed_iid(loose, rng, 100_000)
        assert loose.accepted < tight.accepted

    def test_estimate_matches_truth(self, rng):
        statistic = make_stat(
            mean_accuracy=0.02, quantiles={0.95: 0.05},
            calibration_samples=2000, bins=500,
        )
        feed_iid(statistic, rng, 1_000_000, scale=2.0)
        assert statistic.converged
        estimate = statistic.estimate()
        assert estimate.mean == pytest.approx(2.0, rel=0.05)
        # 95th percentile of exp(mean=2) is 2 ln 20
        assert estimate.quantiles[0.95] == pytest.approx(
            2.0 * np.log(20.0), rel=0.08
        )
        lo, hi = estimate.mean_ci
        assert lo < estimate.mean < hi

    def test_required_sample_size_infinite_before_measurement(self):
        statistic = make_stat()
        assert statistic.required_sample_size() == float("inf")

    def test_fixed_scheme_respected(self, rng):
        scheme = BinScheme(low=0.0, high=100.0, bins=64)
        statistic = make_stat(fixed_scheme=scheme)
        feed_iid(statistic, rng, 300)
        assert statistic.histogram.scheme == scheme

    def test_achieved_accuracy_shrinks(self, rng):
        statistic = make_stat(mean_accuracy=0.01, quantiles=None)
        feed_iid(statistic, rng, 2000)
        early = judge(statistic.histogram, statistic.targets).accuracy["mean"]
        feed_iid(statistic, rng, 50_000)
        late = judge(statistic.histogram, statistic.targets).accuracy["mean"]
        assert late < early


class TestEstimateObject:
    def test_prephase_estimate_is_empty(self):
        statistic = make_stat()
        estimate = statistic.estimate()
        assert estimate.mean is None
        assert estimate.quantiles == {}
        assert not estimate.converged

    def test_quantile_accessor(self, rng):
        statistic = make_stat()
        feed_iid(statistic, rng, 5000)
        estimate = statistic.estimate()
        assert estimate.quantile(0.95) == estimate.quantiles[0.95]
        with pytest.raises(KeyError):
            estimate.quantile(0.5)


class TestLagSelectionIntegration:
    def test_small_calibration_sample_completes_instead_of_crashing(self, rng):
        # Regression: calibration_samples < MIN_RUNS_SAMPLE made
        # find_lag() raise ValueError mid-observe(), killing the run.
        # The calibration must instead grow the lag to max_lag and
        # carry on, flagged inconclusive.
        statistic = make_stat(
            calibration_samples=32, max_lag=20, mean_accuracy=0.2,
            quantiles=None, min_accepted=20,
        )
        feed_iid(statistic, rng, 5000)
        assert statistic.phase in (Phase.MEASUREMENT, Phase.CONVERGED)
        assert statistic.lag == 20
        assert statistic.lag_selection is not None
        assert not statistic.lag_selection.conclusive
        assert "too small" in statistic.lag_selection.reason

    def test_normal_calibration_records_conclusive_selection(self, rng):
        statistic = make_stat()
        feed_iid(statistic, rng, 5000)
        assert statistic.lag_selection is not None
        assert statistic.lag_selection.conclusive
        assert statistic.lag == statistic.lag_selection.lag

    def test_convergence_checks_counted(self, rng):
        statistic = make_stat(mean_accuracy=0.1, quantiles=None)
        feed_iid(statistic, rng, 20_000)
        assert statistic.converged
        assert statistic.convergence_checks >= 1
