"""Edge-case tests for lightly-travelled branches across modules."""

import math

import numpy as np
import pytest

from repro.core.collection import StatisticsCollection
from repro.core.histogram import BinScheme, Histogram
from repro.core.statistic import Statistic
from repro.engine.simulation import Simulation


class TestHistogramEdges:
    def test_density_in_overflow_region(self):
        scheme = BinScheme(low=0.0, high=1.0, bins=10)
        histogram = Histogram(scheme)
        histogram.insert_many([0.5] * 50 + [10.0] * 50)
        density = histogram.density_at_quantile(0.99)
        assert density > 0.0

    def test_density_in_underflow_region(self):
        scheme = BinScheme(low=10.0, high=20.0, bins=10)
        histogram = Histogram(scheme)
        histogram.insert_many([1.0] * 50 + [15.0] * 50)
        density = histogram.density_at_quantile(0.01)
        assert density > 0.0

    def test_all_mass_in_one_bin(self):
        scheme = BinScheme(low=0.0, high=10.0, bins=10)
        histogram = Histogram(scheme)
        histogram.insert_many([5.0] * 100)
        assert histogram.quantile(0.5) == pytest.approx(5.0, abs=1.0)
        assert histogram.std == 0.0

    def test_value_exactly_at_high_goes_to_overflow(self):
        scheme = BinScheme(low=0.0, high=1.0, bins=10)
        histogram = Histogram(scheme)
        histogram.insert(1.0)
        assert histogram.overflow == 1

    def test_merge_empty_into_filled(self):
        scheme = BinScheme(low=0.0, high=1.0, bins=4)
        filled = Histogram(scheme)
        filled.insert_many([0.1, 0.2, 0.3])
        filled.merge(Histogram(scheme))
        assert filled.count == 3


class TestStatisticEdges:
    def test_fixed_scheme_with_out_of_range_observations(self, rng):
        # A slave whose traffic exceeds the master's calibrated range
        # must keep functioning via the overflow region.
        statistic = Statistic(
            "x", mean_accuracy=0.2, warmup_samples=10,
            calibration_samples=100, min_accepted=50,
            fixed_scheme=BinScheme(low=0.0, high=0.5, bins=32),
        )
        for _ in range(10 + 100):
            statistic.observe(rng.exponential())
        for _ in range(5000):
            statistic.observe(rng.exponential() * 3.0)  # mostly overflow
        estimate = statistic.estimate()
        assert estimate.mean == pytest.approx(3.0, rel=0.2)

    def test_all_zero_metric_converges(self):
        statistic = Statistic(
            "zeros", mean_accuracy=0.1, warmup_samples=5,
            calibration_samples=100, min_accepted=50,
        )
        for _ in range(5 + 100 + 200):
            statistic.observe(0.0)
        assert statistic.converged
        assert statistic.estimate().mean == 0.0

    def test_collection_report_before_records(self):
        collection = StatisticsCollection()
        collection.add(Statistic("a", mean_accuracy=0.1))
        report = collection.report()
        assert report["a"].mean is None
        assert not collection.all_converged


class TestSimulationEdges:
    def test_run_until_advances_clock_to_bound(self):
        sim = Simulation()
        sim.schedule_at(10.0, lambda: None)
        sim.run(until=3.0)
        # Clock parks at the bound even with no events before it.
        assert sim.now == pytest.approx(3.0)
        sim.run()
        assert sim.now == pytest.approx(10.0)

    def test_until_and_stop_when_combined(self):
        sim = Simulation()
        count = [0]

        def tick():
            count[0] += 1
            sim.schedule_in(1.0, tick)

        sim.schedule_in(1.0, tick)
        sim.run(until=100.0, stop_when=lambda: count[0] >= 5,
                stop_check_interval=1)
        assert count[0] == 5

    def test_spawn_rng_differs_across_seeds(self):
        first = Simulation(seed=1).spawn_rng().random(3)
        second = Simulation(seed=2).spawn_rng().random(3)
        assert not np.allclose(first, second)


class TestNumericalRobustness:
    def test_statistic_with_huge_values(self, rng):
        statistic = Statistic(
            "big", mean_accuracy=0.1, warmup_samples=10,
            calibration_samples=100, min_accepted=50,
        )
        for _ in range(10 + 100 + 2000):
            statistic.observe(1e12 * rng.exponential())
        assert statistic.estimate().mean > 0
        assert math.isfinite(statistic.estimate().mean)

    def test_statistic_with_tiny_values(self, rng):
        statistic = Statistic(
            "small", mean_accuracy=0.1, warmup_samples=10,
            calibration_samples=100, min_accepted=50,
        )
        for _ in range(10 + 100 + 5000):
            statistic.observe(1e-9 * rng.exponential())
        estimate = statistic.estimate()
        assert estimate.mean == pytest.approx(1e-9, rel=0.2)