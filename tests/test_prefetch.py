"""Bit-reproducibility of block-prefetched sampling.

The prefetch contract (``Distribution.prefetch_safe``): ``sample_many(rng,
n)`` must consume the generator *identically* to ``n`` successive
``sample(rng)`` calls, so a :class:`PrefetchSampler` serves the sequence a
per-draw loop would have produced.  These tests pin that property per
distribution — a distribution whose vectorized path consumes the stream
differently must set ``prefetch_safe = False`` (as Mixture does) or
seeded runs stop being A/B-reproducible.

Value equality comes in two strengths (see the prefetch module
docstring): arithmetic-only transforms match bit-for-bit; pow/log-based
transforms may differ from the scalar path by 1-2 ulp because numpy's
SIMD kernels round differently from scalar libm.  Stream *consumption*
(which uniforms are drawn, and the generator's final state) is exact for
every safe distribution.
"""

import math

import numpy as np
import pytest

from repro import Experiment, Server
from repro.analysis.sanitizer import verify_prefetch_determinism
from repro.datacenter.closedloop import ClosedLoopClients
from repro.datacenter.cluster import MultiserverCluster
from repro.datacenter.multiclass import JobClass, MultiClassSource
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.source import Source
from repro.datacenter.srpt import SRPTServer
from repro.distributions import (
    BoundedPareto,
    Choice,
    Deterministic,
    DistributionError,
    EmpiricalDistribution,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    Mixture,
    Pareto,
    PrefetchSampler,
    Scaled,
    Shifted,
    Truncated,
    Uniform,
    Weibull,
)
from repro.workloads import Workload
from repro.workloads.timevarying import RateProfile, VariableRateSource

#: name -> zero-arg constructor; every exported distribution appears.
DISTRIBUTIONS = {
    "exponential": lambda: Exponential(rate=2.0),
    "deterministic": lambda: Deterministic(0.7),
    "uniform": lambda: Uniform(0.5, 2.5),
    "gamma": lambda: Gamma(shape=2.3, scale=0.4),
    "erlang": lambda: Erlang(k=3, rate=1.5),
    "lognormal": lambda: LogNormal(mu=0.1, sigma=0.6),
    "weibull": lambda: Weibull(shape=1.7, scale=0.9),
    "bounded_pareto": lambda: BoundedPareto(alpha=1.3, low=0.1, high=10.0),
    "pareto": lambda: Pareto(alpha=2.5, xm=0.3),
    "hyperexponential": lambda: HyperExponential(p1=0.4, rate1=3.0, rate2=0.5),
    "empirical": lambda: EmpiricalDistribution([0.2, 0.5, 0.9, 1.7, 4.0]),
    "scaled": lambda: Scaled(Exponential(rate=1.0), factor=3.0),
    "shifted": lambda: Shifted(Exponential(rate=1.0), offset=0.25),
    "truncated": lambda: Truncated(Exponential(rate=1.0), low=0.1, high=4.0),
    "mixture": lambda: Mixture(
        [Exponential(rate=4.0), Exponential(rate=0.5)], weights=[0.7, 0.3]
    ),
}

#: Distributions whose vectorized transform uses pow/log ufuncs, where
#: numpy's SIMD kernels may round 1-2 ulp away from the scalar libm
#: path.  Everything else must match bit-for-bit.
ULP_TOLERANT = {"pareto", "bounded_pareto", "hyperexponential"}

#: Generous cover for 1-2 ulp of SIMD-vs-libm rounding slack.
ULP_RTOL = 1e-12


def assert_values_match(observed, expected, name):
    observed, expected = list(observed), list(expected)
    assert len(observed) == len(expected)
    if name in ULP_TOLERANT:
        assert all(
            math.isclose(a, b, rel_tol=ULP_RTOL, abs_tol=0.0)
            for a, b in zip(observed, expected)
        ), f"{name}: values diverged beyond ulp tolerance"
    else:
        assert observed == expected, f"{name}: values are not bit-identical"


@pytest.fixture(params=sorted(DISTRIBUTIONS), name="named_distribution")
def _named_distribution(request):
    return request.param, DISTRIBUTIONS[request.param]()


class TestPrefetchSafeContract:
    def test_sample_many_matches_repeated_sample(self, named_distribution):
        """The contract itself, for every distribution that declares it."""
        name, distribution = named_distribution
        if not distribution.prefetch_safe:
            pytest.skip("distribution opts out of the contract")
        n = 257
        distribution.sample(
            np.random.default_rng(99)
        )  # warm call to catch constructor state leaks
        loop_rng = np.random.default_rng(1234)
        vector_rng = np.random.default_rng(1234)
        looped = [distribution.sample(loop_rng) for _ in range(n)]
        vectorized = distribution.sample_many(vector_rng, n)
        assert_values_match(looped, vectorized, name)
        # The hard contract: both paths consume the generator identically,
        # so the streams END at the same state.
        assert loop_rng.random() == vector_rng.random(), (
            "sample_many consumed the stream differently from sample"
        )

    def test_prefetched_sampler_matches_per_draw_loop(self, named_distribution):
        """PrefetchSampler(block) == per-draw loop, draw for draw."""
        name, distribution = named_distribution
        n = 1000
        direct_rng = np.random.default_rng(77)
        direct = [distribution.sample(direct_rng) for _ in range(n)]
        sampler = PrefetchSampler(
            distribution, np.random.default_rng(77), block_size=64
        )
        prefetched = [sampler() for _ in range(n)]
        assert_values_match(prefetched, direct, name)

    def test_block_size_one_is_identity(self, named_distribution):
        """block_size=1 (the A/B 'off' switch) is plain per-draw sampling."""
        _, distribution = named_distribution
        n = 100
        direct_rng = np.random.default_rng(5)
        direct = [distribution.sample(direct_rng) for _ in range(n)]
        sampler = PrefetchSampler(
            distribution, np.random.default_rng(5), block_size=1
        )
        assert [sampler() for _ in range(n)] == direct


class TestSamplerMechanics:
    def test_take_continues_the_stream(self):
        distribution = Exponential(rate=1.0)
        direct_rng = np.random.default_rng(11)
        direct = [distribution.sample(direct_rng) for _ in range(50)]
        sampler = PrefetchSampler(
            distribution, np.random.default_rng(11), block_size=16
        )
        head = [sampler() for _ in range(7)]
        middle = sampler.take(30)
        tail = [sampler() for _ in range(13)]
        assert head + list(middle) + tail == direct

    def test_take_shorter_than_buffer(self):
        distribution = Exponential(rate=1.0)
        direct_rng = np.random.default_rng(13)
        direct = [distribution.sample(direct_rng) for _ in range(10)]
        sampler = PrefetchSampler(
            distribution, np.random.default_rng(13), block_size=64
        )
        first = sampler()  # forces a 64-draw block
        taken = sampler.take(4)  # fully served from the buffer
        rest = [sampler() for _ in range(5)]
        assert [first] + list(taken) + rest == direct

    def test_take_rejects_negative(self):
        sampler = PrefetchSampler(
            Exponential(rate=1.0), np.random.default_rng(0)
        )
        with pytest.raises(DistributionError):
            sampler.take(-1)

    def test_pending_reflects_buffer(self):
        sampler = PrefetchSampler(
            Exponential(rate=1.0), np.random.default_rng(0), block_size=8
        )
        assert sampler.pending == 0
        sampler()
        assert sampler.pending == 7
        sampler.take(3)
        assert sampler.pending == 4

    def test_rejects_nonpositive_block(self):
        with pytest.raises(DistributionError):
            PrefetchSampler(
                Exponential(rate=1.0), np.random.default_rng(0), block_size=0
            )

    def test_ab_experiment_estimates_identical(self):
        """End-to-end A/B: a full experiment with prefetch on vs off must
        produce the same estimates.  An M/M/1 workload uses only the
        exponential transform, so the match is bit-exact."""
        def run(prefetch):
            workload = Workload(
                name="mm1",
                interarrival=Exponential(rate=0.6),
                service=Exponential(rate=1.0),
            )
            experiment = Experiment(
                seed=42, warmup_samples=300, calibration_samples=2000,
                prefetch=prefetch,
            )
            server = Server(cores=1)
            experiment.add_source(workload, target=server)
            experiment.track_response_time(server, mean_accuracy=0.08)
            return experiment.run()["response_time"]

        on, off = run(True), run(False)
        assert on.accepted == off.accepted
        assert on.mean == off.mean
        assert on.std == off.std
        assert on.quantiles == off.quantiles

    def test_ab_experiment_hyperexponential_workload(self):
        """Same A/B with a high-CV workload (hyperexponential transforms
        carry the 1-2 ulp SIMD slack): estimates agree to float tolerance."""
        from repro.workloads import web

        def run(prefetch):
            experiment = Experiment(
                seed=7, warmup_samples=300, calibration_samples=2000,
                prefetch=prefetch,
            )
            server = Server(cores=1)
            experiment.add_source(web().at_load(0.6), target=server)
            experiment.track_response_time(server, mean_accuracy=0.08)
            return experiment.run()["response_time"]

        on, off = run(True), run(False)
        assert on.accepted == off.accepted
        assert on.mean == pytest.approx(off.mean, rel=1e-9)
        for q in on.quantiles:
            assert on.quantiles[q] == pytest.approx(off.quantiles[q], rel=1e-9)

    def test_unsafe_distribution_served_per_draw(self):
        mixture = DISTRIBUTIONS["mixture"]()
        assert not mixture.prefetch_safe
        sampler = PrefetchSampler(
            mixture, np.random.default_rng(3), block_size=256
        )
        direct_rng = np.random.default_rng(3)
        direct = [mixture.sample(direct_rng) for _ in range(40)]
        assert [sampler() for _ in range(40)] == direct
        # Never buffers: the per-draw fallback is transparent.
        assert sampler.pending == 0


# -- the experiment's prefetch mode reaches every component -------------------


def _sampling_component(name):
    """One component that builds its own samplers, by name."""
    service = Exponential(rate=2.0)
    workload = Workload(
        "w", interarrival=Exponential(rate=1.0), service=service
    )
    builders = {
        "source": lambda: Source(
            workload.with_servers_needed(Choice([1, 2], [0.5, 0.5])),
            MultiserverCluster(2),
        ),
        "fcfs": lambda: Server(service_distribution=service),
        "ps": lambda: ProcessorSharingServer(service_distribution=service),
        "srpt": lambda: SRPTServer(service_distribution=service),
        "msj": lambda: MultiserverCluster(2, service_distribution=service),
        "variable-rate": lambda: VariableRateSource(
            workload, RateProfile([(0.0, 0.5), (10.0, 1.0)], period=20.0),
            Server(),
        ),
        "closed-loop": lambda: ClosedLoopClients(
            3, Exponential(rate=1.0), service, Server()
        ),
        "multiclass": lambda: MultiClassSource(
            Exponential(rate=1.0),
            [JobClass("only", priority=0, service=service)],
            Server(),
        ),
    }
    return builders[name]()


class TestExperimentPrefetchMode:
    @pytest.mark.parametrize("name", [
        "source", "fcfs", "ps", "srpt", "msj", "variable-rate",
        "closed-loop", "multiclass",
    ])
    @pytest.mark.parametrize("prefetch, block", [(True, 4096), (False, 1)])
    def test_every_sampler_takes_the_mode(self, name, prefetch, block):
        """``Experiment(prefetch=False)`` turns off every component's
        prefetch, not only the sources ``add_source`` builds."""
        experiment = Experiment(seed=3, prefetch=prefetch)
        component = _sampling_component(name)
        experiment.bind(component)
        samplers = [
            value for value in vars(component).values()
            if isinstance(value, PrefetchSampler)
        ]
        assert samplers
        assert [s.block_size for s in samplers] == [block] * len(samplers)

    def test_closed_loop_ab_streams_identical(self):
        """The A/B check covers a closed-loop model: the prefetch-off
        twin draws one value at a time and still dispatches the same
        events."""
        check = verify_prefetch_determinism(
            closed_loop_factory, seed=4, max_events=60_000
        )
        assert check.matched, check.details
        assert check.digests["prefetch-on"].rng_blocks > 0
        assert check.digests["prefetch-off"].rng_blocks == 0


def closed_loop_factory(seed, prefetch=True, sanitize=False):
    experiment = Experiment(
        seed=seed, warmup_samples=100, calibration_samples=500,
        prefetch=prefetch, sanitize=sanitize,
    )
    server = Server(cores=1)
    experiment.bind(ClosedLoopClients(
        6, Exponential.from_mean(1.0), Exponential.from_mean(0.1), server
    ))
    experiment.track_response_time(server, mean_accuracy=0.2)
    return experiment
