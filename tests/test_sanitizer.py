"""Runtime determinism sanitizer: A/B digests and contract enforcement.

The two canonical guarantees (prefetch-on == prefetch-off, serial ==
process) are asserted on an M/M/1 and a hyperexponential experiment;
a deliberately lying distribution shows both enforcement modes — the
verifying sampler raises :class:`PrefetchContractError`, and a
hash-only probe exposes the event-stream divergence the lie causes.

Factories are module-level so the process backend can pickle them.
"""

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    DeterminismProbe,
    SanitizerError,
    experiment_digest,
    verify_backend_determinism,
    verify_prefetch_determinism,
)
from repro.datacenter.balancers import CloningBalancer
from repro.datacenter.closedloop import ClosedLoopClients
from repro.datacenter.cluster import MultiserverCluster
from repro.datacenter.multiclass import JobClass, MultiClassSource
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.server import Server
from repro.datacenter.srpt import SRPTServer
from repro.distributions import (
    Exponential,
    HyperExponential,
    PrefetchContractError,
    PrefetchSampler,
)
from repro.distributions.base import Distribution
from repro.engine.experiment import Experiment
from repro.engine.report import result_to_dict
from repro.engine.simulation import SimulationError, seeded_rng
from repro.workloads.timevarying import RateProfile, VariableRateSource
from repro.workloads.workload import Workload


def _experiment(service, seed, prefetch, sanitize, accuracy=0.3):
    experiment = Experiment(
        seed=seed,
        warmup_samples=50,
        calibration_samples=200,
        prefetch=prefetch,
        sanitize=sanitize,
    )
    server = Server(cores=1)
    workload = Workload(
        name="w", interarrival=Exponential(rate=0.7), service=service
    )
    experiment.add_source(workload, target=server)
    experiment.track_response_time(server, mean_accuracy=accuracy)
    return experiment


def mm1_factory(seed, prefetch=True, sanitize=False):
    return _experiment(Exponential(rate=1.0), seed, prefetch, sanitize)


def hyper_factory(seed, prefetch=True, sanitize=False):
    return _experiment(
        HyperExponential.from_mean_cv(1.0, 3.0), seed, prefetch, sanitize
    )


class ReversingExponential(Distribution):
    """Deliberately violates the prefetch contract: blocks come out
    reversed, so block draws diverge from per-draw sampling while still
    consuming the generator identically."""

    prefetch_safe = True  # the lie under test

    def sample(self, rng):
        return float(rng.exponential(1.0))

    def sample_many(self, rng, n):
        return rng.exponential(1.0, size=n)[::-1].copy()

    def mean(self):
        return 1.0

    def variance(self):
        return 1.0


def evil_factory(seed, prefetch=True, sanitize=False):
    return _experiment(ReversingExponential(), seed, prefetch, sanitize)


def _fed_honestly(make_station):
    """A lying station fed by an honest source; returns the station."""
    def build(experiment):
        station = make_station()
        experiment.add_source(
            Workload(name="w", interarrival=Exponential(rate=0.7),
                     service=Exponential(rate=1.0)),
            target=station, draw_sizes=False,
        )
        return station
    return build


def _lying_source(make_source):
    """A lying source feeding an honest server; returns the server."""
    def build(experiment):
        server = Server(cores=1)
        experiment.bind(make_source(server))
        return server
    return build


class TestPrefetchDeterminism:
    def test_mm1_event_streams_identical(self):
        check = verify_prefetch_determinism(
            mm1_factory, seed=3, max_events=100_000
        )
        assert check.matched, check.details
        on = check.digests["prefetch-on"]
        off = check.digests["prefetch-off"]
        assert on.event_digest == off.event_digest
        assert on.events_hashed == off.events_hashed > 0
        # Block boundaries legitimately differ between the two modes.
        assert on.rng_blocks > 0
        assert off.rng_blocks == 0

    def test_hyperexponential_event_streams_identical(self):
        # Regression for the math.log1p/np.log1p ulp split: the scalar
        # path must use numpy's log1p or this digest comparison fails.
        check = verify_prefetch_determinism(
            hyper_factory, seed=9, max_events=100_000
        )
        assert check.matched, check.details

    def test_check_is_truthy_and_serializable(self):
        check = verify_prefetch_determinism(
            mm1_factory, seed=1, max_events=50_000
        )
        assert bool(check)
        payload = check.to_dict()
        assert payload["name"] == "prefetch-determinism"
        assert payload["matched"] is True
        assert set(payload["digests"]) == {"prefetch-on", "prefetch-off"}


class TestBackendDeterminism:
    def test_serial_and_process_slaves_hash_equal(self):
        check = verify_backend_determinism(
            mm1_factory,
            n_slaves=2,
            chunk_size=300,
            max_rounds=8,
        )
        assert check.matched, check.details
        for slave_id in range(2):
            serial = check.digests[f"serial-slave-{slave_id}"]
            process = check.digests[f"process-slave-{slave_id}"]
            assert serial.event_digest == process.event_digest
            assert serial.events_hashed == process.events_hashed > 0
        # Unique-seed rule: different slaves, different streams.
        assert (
            check.digests["serial-slave-0"].event_digest
            != check.digests["serial-slave-1"].event_digest
        )


class TestContractEnforcement:
    def test_verifying_run_catches_the_lie(self):
        experiment = evil_factory(seed=2, sanitize=True)
        with pytest.raises(PrefetchContractError, match="ReversingExponential"):
            experiment.run(max_events=50_000)

    @pytest.mark.parametrize("build", [
        _fed_honestly(lambda: Server(
            service_distribution=ReversingExponential()
        )),
        _fed_honestly(lambda: ProcessorSharingServer(
            service_distribution=ReversingExponential()
        )),
        _fed_honestly(lambda: SRPTServer(
            service_distribution=ReversingExponential()
        )),
        _fed_honestly(lambda: MultiserverCluster(
            2, service_distribution=ReversingExponential()
        )),
        # Independent clones: every replica's size is a backend draw.
        _fed_honestly(lambda: CloningBalancer(
            [ProcessorSharingServer(
                service_distribution=ReversingExponential(), name=f"ps{i}"
            ) for i in range(2)],
            clones=2, synchronized=False,
        )),
        _lying_source(lambda server: ClosedLoopClients(
            4, ReversingExponential(), Exponential(rate=2.0), server
        )),
        _lying_source(lambda server: VariableRateSource(
            Workload(name="w", interarrival=ReversingExponential(),
                     service=Exponential(rate=2.0)),
            RateProfile([(0.0, 0.5), (10.0, 1.0)], period=20.0),
            server,
        )),
        _lying_source(lambda server: MultiClassSource(
            ReversingExponential(),
            [JobClass("only", priority=0, service=Exponential(rate=2.0))],
            server,
        )),
    ], ids=["fcfs", "ps", "srpt", "msj", "independent-clones",
            "closed-loop", "variable-rate", "multiclass"])
    def test_verifying_run_catches_a_lying_station(self, build):
        experiment = Experiment(
            seed=2, warmup_samples=50, calibration_samples=200,
            sanitize=True,
        )
        with pytest.raises(PrefetchContractError, match="ReversingExponential"):
            station = build(experiment)
            experiment.track_response_time(station, mean_accuracy=0.3)
            experiment.run(max_events=50_000)

    def test_sampler_catches_overconsumption(self):
        class Greedy(ReversingExponential):  # simlint: disable=prefetch-contract
            # Inherits sample and the lying prefetch_safe=True; consumes
            # one extra draw per block so the replay state check trips.
            def sample_many(self, rng, n):
                return rng.exponential(1.0, size=n + 1)[:n]

        sampler = PrefetchSampler(
            Greedy(), np.random.default_rng(1), block_size=64,
            probe=DeterminismProbe(),
        )
        with pytest.raises(PrefetchContractError, match="consumed"):
            sampler()

    def test_honest_distribution_survives_verification(self):
        sampler = PrefetchSampler(
            Exponential(1.0),
            np.random.default_rng(1),
            block_size=64,
            probe=DeterminismProbe(),
        )
        plain = PrefetchSampler(
            Exponential(1.0), np.random.default_rng(1), block_size=64
        )
        assert [sampler() for _ in range(130)] == [
            plain() for _ in range(130)
        ]


class TestPlumbing:
    def test_result_carries_digest(self):
        experiment = mm1_factory(seed=4, sanitize=True)
        result = experiment.run(max_events=50_000)
        assert result.sanitizer is not None
        assert result.sanitizer.events_hashed == result.events_processed
        payload = result_to_dict(result)
        assert payload["sanitizer"]["event_digest"] == (
            result.sanitizer.event_digest
        )

    def test_unsanitized_result_has_no_digest(self):
        experiment = mm1_factory(seed=4)
        result = experiment.run(max_events=50_000)
        assert result.sanitizer is None
        assert "sanitizer" not in result_to_dict(result)

    def test_experiment_digest_requires_cooperative_factory(self):
        def stubborn(seed, prefetch=True, sanitize=False):
            return mm1_factory(seed)  # drops sanitize on the floor

        with pytest.raises(SanitizerError):
            experiment_digest(stubborn, seed=0, max_events=10_000)

    def test_same_seed_same_digest_different_seed_different(self):
        a = experiment_digest(mm1_factory, seed=7, max_events=50_000)
        b = experiment_digest(mm1_factory, seed=7, max_events=50_000)
        c = experiment_digest(mm1_factory, seed=8, max_events=50_000)
        assert a == b
        assert a.event_digest != c.event_digest

    def test_seeded_rng_requires_a_seed(self):
        assert isinstance(seeded_rng(0xB16), np.random.Generator)
        with pytest.raises(SimulationError):
            seeded_rng(None)
