"""Unit tests for the closed-form queueing-theory module."""

import math

import pytest

from repro.distributions import Deterministic, Exponential, HyperExponential
from repro.theory import (
    TheoryError,
    erlang_c,
    gg1_mean_waiting_approx,
    interactive_response_time,
    mg1_mean_response,
    mg1_mean_waiting,
    mg1_sjf_response,
    mg1_srpt_response,
    mm1_mean_response,
    mm1_mean_waiting,
    mm1_quantile_response,
    mmk_mean_response,
    mmk_mean_waiting,
    mva_throughput,
)


class TestMM1:
    def test_known_values(self):
        assert mm1_mean_response(10.0, 20.0) == pytest.approx(0.1)
        assert mm1_mean_waiting(10.0, 20.0) == pytest.approx(0.05)

    def test_quantile(self):
        assert mm1_quantile_response(10.0, 20.0, 0.95) == pytest.approx(
            0.1 * math.log(20.0)
        )

    def test_unstable_rejected(self):
        with pytest.raises(TheoryError):
            mm1_mean_response(20.0, 20.0)
        with pytest.raises(TheoryError):
            mm1_mean_response(25.0, 20.0)

    def test_bad_quantile(self):
        with pytest.raises(TheoryError):
            mm1_quantile_response(1.0, 2.0, 1.0)


class TestErlangC:
    def test_k1_equals_rho(self):
        # With one server, P(queue) = rho.
        assert erlang_c(10.0, 20.0, 1) == pytest.approx(0.5)

    def test_decreases_with_servers_at_fixed_rho(self):
        # rho fixed at 0.5: queuing probability falls as k grows.
        values = [erlang_c(0.5 * k * 2.0, 2.0, k) for k in (1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)

    def test_probability_bounds(self):
        value = erlang_c(15.0, 2.0, 10)
        assert 0.0 < value < 1.0


class TestMMk:
    def test_reduces_to_mm1(self):
        assert mmk_mean_waiting(10.0, 20.0, 1) == pytest.approx(
            mm1_mean_waiting(10.0, 20.0)
        )
        assert mmk_mean_response(10.0, 20.0, 1) == pytest.approx(
            mm1_mean_response(10.0, 20.0)
        )

    def test_pooling_helps(self):
        # Same per-server rho: 4 pooled servers wait less than 1.
        one = mmk_mean_waiting(10.0, 20.0, 1)
        four = mmk_mean_waiting(40.0, 20.0, 4)
        assert four < one


class TestMG1:
    def test_reduces_to_mm1_for_exponential(self):
        service = Exponential(rate=20.0)
        assert mg1_mean_waiting(10.0, service) == pytest.approx(
            mm1_mean_waiting(10.0, 20.0)
        )

    def test_deterministic_halves_waiting(self):
        expo = mg1_mean_waiting(10.0, Exponential(rate=20.0))
        det = mg1_mean_waiting(10.0, Deterministic(0.05))
        assert det == pytest.approx(expo / 2.0)

    def test_heavy_tail_inflates_waiting(self):
        light = mg1_mean_waiting(10.0, Exponential(rate=20.0))
        heavy = mg1_mean_waiting(
            10.0, HyperExponential.from_mean_cv(0.05, 4.0)
        )
        assert heavy > 5 * light

    def test_response_adds_service(self):
        service = Exponential(rate=20.0)
        assert mg1_mean_response(10.0, service) == pytest.approx(
            mg1_mean_waiting(10.0, service) + 0.05
        )

    def test_unstable_rejected(self):
        with pytest.raises(TheoryError):
            mg1_mean_waiting(30.0, Exponential(rate=20.0))


class TestKingman:
    def test_exact_for_mm1(self):
        # Kingman is exact for M/M/1 (Ca = Cs = 1).
        approx = gg1_mean_waiting_approx(10.0, Exponential(rate=20.0), 1.0)
        assert approx == pytest.approx(mm1_mean_waiting(10.0, 20.0))

    def test_low_variance_arrivals_reduce_waiting(self):
        smooth = gg1_mean_waiting_approx(10.0, Exponential(rate=20.0), 0.1)
        bursty = gg1_mean_waiting_approx(10.0, Exponential(rate=20.0), 2.0)
        assert smooth < bursty

    def test_negative_cv_rejected(self):
        with pytest.raises(TheoryError):
            gg1_mean_waiting_approx(1.0, Exponential(rate=2.0), -1.0)


class TestSizeBasedDisciplines:
    """Phipps (SJF) and Schrage–Miller (SRPT) at the scheduling study's
    point: E[S] = 50 ms, Cv = 3, rho = 0.7."""

    SERVICE = HyperExponential.from_mean_cv(0.05, 3.0)

    def test_pinned_values(self):
        assert mg1_sjf_response(14.0, self.SERVICE) == pytest.approx(
            0.2879, abs=5e-5
        )
        assert mg1_srpt_response(14.0, self.SERVICE) == pytest.approx(
            0.0891, abs=5e-5
        )

    @pytest.mark.parametrize("service", [
        Exponential(rate=20.0), HyperExponential.from_mean_cv(0.05, 2.0),
        HyperExponential.from_mean_cv(0.05, 3.0),
    ])
    @pytest.mark.parametrize("lam", [4.0, 10.0, 18.0])
    def test_srpt_beats_sjf_beats_fcfs(self, service, lam):
        srpt = mg1_srpt_response(lam, service)
        sjf = mg1_sjf_response(lam, service)
        assert srpt <= sjf <= mg1_mean_response(lam, service)

    def test_light_load_is_the_service_time(self):
        for form in (mg1_sjf_response, mg1_srpt_response):
            assert form(1e-6, self.SERVICE) == pytest.approx(0.05, rel=1e-5)

    def test_rejected_inputs(self):
        with pytest.raises(TheoryError):
            mg1_sjf_response(20.0, self.SERVICE)  # rho = 1
        with pytest.raises(TheoryError):
            mg1_srpt_response(10.0, Deterministic(0.05))


class TestClosedLoop:
    def test_one_client_never_queues(self):
        assert mva_throughput(1, [0.1], 1.0) == pytest.approx(1.0 / 1.1)

    def test_mva_response_at_the_grid_point(self):
        throughput = mva_throughput(8, [0.1], 1.0)
        assert interactive_response_time(8, throughput, 1.0) == (
            pytest.approx(0.20904, abs=5e-6)
        )

    def test_throughput_saturates_at_the_bottleneck(self):
        assert mva_throughput(200, [0.1, 0.05], 1.0) == pytest.approx(
            10.0, rel=1e-6
        )

    def test_rejected_inputs(self):
        with pytest.raises(TheoryError):
            mva_throughput(0, [0.1], 1.0)
        with pytest.raises(TheoryError):
            mva_throughput(2, [], 1.0)


class TestSimulationAgreement:
    """The simulator and the closed forms must agree where both exist."""

    def test_mmk_simulation_matches_erlang_c(self):
        from repro import Experiment, Server, Workload

        lam, mu, k = 30.0, 10.0, 4  # rho = 0.75
        experiment = Experiment(seed=77, warmup_samples=500,
                                calibration_samples=3000)
        server = Server(cores=k)
        experiment.add_source(
            Workload("mmk", Exponential(rate=lam), Exponential(rate=mu)),
            target=server,
        )
        experiment.track_waiting_time(server, mean_accuracy=0.03)
        estimate = experiment.run()["waiting_time"]
        assert estimate.mean == pytest.approx(
            mmk_mean_waiting(lam, mu, k), rel=0.12
        )
