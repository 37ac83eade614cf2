"""Unit tests for confidence-interval math (Eqs. 1-3)."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.confidence import (
    mean_confidence_interval,
    mean_sample_size,
    quantile_sample_size,
    z_value,
)


class TestZValue:
    def test_classic_values(self):
        assert z_value(0.95) == pytest.approx(1.959964, rel=1e-5)
        assert z_value(0.99) == pytest.approx(2.575829, rel=1e-5)
        assert z_value(0.90) == pytest.approx(1.644854, rel=1e-5)

    def test_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                z_value(bad)

    def test_equals_scipy_stats_bit_for_bit(self):
        # src/ calls scipy.special directly to keep scipy.stats out of
        # start-up; the reference may import it.
        from scipy import stats

        levels = list(np.linspace(0.5, 0.9999, 400)) + [0.9, 0.95, 0.99, 0.999]
        for level in levels:
            confidence = float(level)
            alpha = 1.0 - confidence
            assert z_value(confidence) == float(stats.norm.ppf(1.0 - alpha / 2.0))


class TestStartUp:
    """``import repro`` pays for scipy.special only, never scipy.stats."""

    @pytest.mark.parametrize("argv", [
        ["-c", "import repro"],
        ["-c", "import repro.parallel"],
        ["-m", "repro", "--help"],
    ], ids=" ".join)
    def test_scipy_stats_is_not_imported(self, argv):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        done = subprocess.run(
            [sys.executable, "-X", "importtime", *argv],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        packages = {".".join(line.rsplit("|", 1)[-1].split(".")[:2]).strip()
                    for line in done.stderr.splitlines()}
        assert "scipy.special" in packages  # the listing sees scipy at all
        assert "scipy.stats" not in packages


class TestMeanSampleSize:
    def test_eq2_formula(self):
        # Nm = (z * sigma / eps)^2
        n = mean_sample_size(std=2.0, epsilon=0.1, confidence=0.95)
        assert n == pytest.approx((1.959964 * 2.0 / 0.1) ** 2, rel=1e-4)

    def test_quadratic_in_accuracy(self):
        # Halving epsilon quadruples the requirement (the Fig. 8/9 effect).
        n1 = mean_sample_size(1.0, 0.1)
        n2 = mean_sample_size(1.0, 0.05)
        assert n2 == pytest.approx(4.0 * n1)

    def test_quadratic_in_std(self):
        n1 = mean_sample_size(1.0, 0.1)
        n2 = mean_sample_size(3.0, 0.1)
        assert n2 == pytest.approx(9.0 * n1)

    def test_zero_std_needs_nothing(self):
        assert mean_sample_size(0.0, 0.1) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            mean_sample_size(1.0, 0.0)
        with pytest.raises(ValueError):
            mean_sample_size(-1.0, 0.1)


class TestQuantileSampleSize:
    def test_eq3_formula(self):
        n = quantile_sample_size(q=0.95, epsilon_p=0.01, confidence=0.95)
        z = 1.959964
        assert n == pytest.approx(z * z * 0.95 * 0.05 / 1e-4, rel=1e-4)

    def test_median_needs_most(self):
        # q(1-q) peaks at the median.
        assert quantile_sample_size(0.5, 0.01) > quantile_sample_size(0.95, 0.01)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            quantile_sample_size(0.0, 0.01)
        with pytest.raises(ValueError):
            quantile_sample_size(1.0, 0.01)
        with pytest.raises(ValueError):
            quantile_sample_size(0.5, 0.0)


class TestMeanCI:
    def test_shrinks_with_n(self):
        lo1, hi1 = mean_confidence_interval(10.0, 2.0, 100)
        lo2, hi2 = mean_confidence_interval(10.0, 2.0, 400)
        assert (hi2 - lo2) == pytest.approx((hi1 - lo1) / 2.0)

    def test_centered_on_mean(self):
        lo, hi = mean_confidence_interval(5.0, 1.0, 50)
        assert (lo + hi) / 2.0 == pytest.approx(5.0)

    def test_coverage_on_normal_data(self, rng):
        # ~95% of intervals built from normal samples should cover 0.
        hits = 0
        trials = 200
        for _ in range(trials):
            sample = rng.normal(0.0, 1.0, size=100)
            lo, hi = mean_confidence_interval(
                float(np.mean(sample)), float(np.std(sample)), 100
            )
            hits += lo <= 0.0 <= hi
        assert hits / trials > 0.88

    def test_bad_n(self):
        with pytest.raises(ValueError):
            mean_confidence_interval(0.0, 1.0, 0)
