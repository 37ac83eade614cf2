"""Request-cloning and speculative-retry ground-truth tests.

Pins for :mod:`repro.datacenter.balancers` redundancy policies:

1. **No double counting** — cancel-on-first-complete fires exactly one
   logical completion per job, so downstream :class:`Statistic` /
   :class:`Histogram` sinks see exactly one sample each (hypothesis
   property over clone counts d = 1..4).
2. **Seed lineage** — speculative-retry backend picks derive from
   ``derive_seed`` keyed by the balancer's own arrival sequence, so
   identical runs are bit-identical and seeds matter.
3. **Theory** — synchronized clone-to-all over n PS backends collapses
   to a single M/G/1-PS queue *sample-path exactly* (so any tail
   quantile matches bit-for-bit), and means match the
   :mod:`repro.theory.cloning` closed forms.
4. **Pinned outcomes** — ``tests/fixtures/redundancy_pins.json`` holds
   whole seeded runs of every redundancy policy, recorded by an earlier
   commit; ``PYTHONPATH=src python -m tests.test_cloning`` re-records it,
   only for a change that is meant to move simulated numbers.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.histogram import BinScheme, Histogram
from repro.core.statistic import Statistic
from repro.datacenter.balancers import CloningBalancer, SpeculativeRetryBalancer
from repro.datacenter.job import Job
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.server import Server
from repro.distributions import Exponential
from repro.engine.experiment import Experiment
from repro.engine.fastpath import qualifies
from repro.engine.simulation import Simulation, seeded_rng
from repro.theory.cloning import (
    min_of_exponentials_mean,
    ps_clone_to_all_response,
    ps_cloning_response,
    ps_random_split_response,
)
from repro.theory.queues import TheoryError
from repro.workloads.workload import Workload

SEED = 20260809


def ps_backends(n):
    return [ProcessorSharingServer(name=f"ps{i}") for i in range(n)]


def drive_balancer(balancer, n_jobs, seed, rate=2.0, mu=5.0):
    """Push a Poisson/exponential stream through a bound balancer."""
    sim = Simulation(seed=seed)
    balancer.bind(sim)
    rng = seeded_rng(seed + 1)
    t = 0.0
    for i in range(n_jobs):
        t += float(rng.exponential(1.0 / rate))
        job = Job(i + 1, size=float(rng.exponential(1.0 / mu)))

        def arrive(j=job):
            balancer.arrive(j)

        sim.schedule_at(t, arrive)
    sim.run()
    return sim


def run_experiment(target, seed=SEED, lam=8.0, mu=10.0, max_events=60_000):
    """Full pipeline run; returns logical response-time samples."""
    workload = Workload(
        "clone", Exponential(rate=lam), Exponential(rate=mu)
    )
    experiment = Experiment(
        seed=seed, warmup_samples=200, calibration_samples=1000
    )
    experiment.add_source(workload, target=target)
    samples = []
    target.on_complete(
        lambda job, station: samples.append(job.finish_time - job.arrival_time)
    )
    experiment.track_response_time(target, mean_accuracy=0.1)
    experiment.run(max_events=max_events)
    return np.asarray(samples)


class TestNoDoubleCounting:
    """Cancel-on-first-complete must yield exactly one logical sample."""

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(clones=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_one_sample_per_logical_job(self, clones, seed):
        n_jobs = 60
        balancer = CloningBalancer(ps_backends(4), clones=clones)
        statistic = Statistic(
            "response", warmup_samples=0, calibration_samples=30
        )
        histogram = Histogram(BinScheme(low=0.0, high=10.0, bins=50))
        balancer.on_complete(
            lambda job, station: (
                statistic.observe(job.finish_time - job.arrival_time),
                histogram.insert(job.finish_time - job.arrival_time),
            )
        )
        drive_balancer(balancer, n_jobs, seed)

        assert balancer.completed_jobs == n_jobs
        assert statistic.observed == n_jobs
        assert histogram.count == n_jobs
        # Every losing replica was cancelled, nothing leaked.
        assert balancer.cancelled_replicas == (clones - 1) * n_jobs
        for backend in balancer.servers:
            assert backend.outstanding == 0

    def test_fcfs_backends_also_supported(self):
        # cancel() exists on plain FCFS servers too; queue removals and
        # preemptive cancellations must both account correctly.
        balancer = CloningBalancer(
            [Server(name=f"s{i}") for i in range(3)], clones=3
        )
        drive_balancer(balancer, 80, seed=5)
        assert balancer.completed_jobs == 80
        assert balancer.cancelled_replicas == 2 * 80

    def test_rejects_backend_without_cancel(self):
        class NoCancel:
            pass

        with pytest.raises(ValueError, match="cancel"):
            CloningBalancer([NoCancel(), NoCancel()], clones=2)

    def test_rejects_bad_clone_count(self):
        with pytest.raises(ValueError):
            CloningBalancer(ps_backends(2), clones=3)
        with pytest.raises(ValueError):
            CloningBalancer(ps_backends(2), clones=0)


class TestRepeatBind:
    """Binding a redundancy balancer again (a second source feeding the
    same pool) must change nothing: one replica listener per backend,
    the same random stream, the same hedge lineage."""

    def test_cloning_balancer(self):
        sim = Simulation(seed=SEED)
        balancer = CloningBalancer(ps_backends(3), clones=2)
        balancer.bind(sim)
        rng = balancer._rng
        balancer.bind(sim)
        assert [len(b._complete_listeners) for b in balancer.servers] == [1, 1, 1]
        assert balancer._rng is rng

    def test_speculative_retry_balancer(self):
        sim = Simulation(seed=SEED)
        balancer = SpeculativeRetryBalancer(ps_backends(3), threshold=0.1)
        balancer.bind(sim)
        lineage = balancer._lineage_seed
        balancer.bind(sim)
        assert [len(b._complete_listeners) for b in balancer.servers] == [1, 1, 1]
        assert balancer._lineage_seed == lineage

    def test_two_sources_feed_one_pool(self):
        balancer = CloningBalancer(ps_backends(3), clones=2)
        workload = Workload("clone", Exponential(rate=4.0), Exponential(rate=10.0))
        experiment = Experiment(seed=SEED)
        for _ in range(2):
            experiment.add_source(workload, target=balancer, max_jobs=200)
        assert [len(b._complete_listeners) for b in balancer.servers] == [1, 1, 1]
        experiment.simulation.run()
        assert balancer.dispatched == 400
        assert balancer.completed_jobs == balancer.dispatched
        assert balancer.cancelled_replicas == balancer.dispatched


class TestCloneToAllEquivalence:
    """d = n synchronized cloning IS a single PS queue, sample for sample."""

    def test_bit_identical_to_single_ps(self):
        cloned = run_experiment(CloningBalancer(ps_backends(3), clones=3))
        single = run_experiment(ProcessorSharingServer(name="solo"))
        assert len(cloned) == len(single) > 1000
        # Not statistically close — bit-identical, so ANY tail quantile
        # matches exactly.
        assert np.array_equal(cloned, single)
        for q in (0.5, 0.95, 0.99):
            assert np.quantile(cloned, q) == np.quantile(single, q)

    def test_mean_matches_closed_form(self):
        lam, mu = 5.0, 10.0  # rho = 0.5: converges well within the cap
        samples = run_experiment(
            CloningBalancer(ps_backends(3), clones=3),
            lam=lam, mu=mu, max_events=400_000,
        )
        theory_mean = ps_clone_to_all_response(lam, mu)
        assert samples.mean() == pytest.approx(theory_mean, rel=0.1)

    def test_random_split_matches_closed_form(self):
        lam, mu = 5.0, 10.0
        samples = run_experiment(
            CloningBalancer(ps_backends(2), clones=1),
            lam=lam, mu=mu, max_events=400_000,
        )
        theory_mean = ps_random_split_response(lam, mu, 2)
        assert samples.mean() == pytest.approx(theory_mean, rel=0.1)


class TestCloningTheory:
    def test_clone_to_all_is_mg1_ps(self):
        assert ps_clone_to_all_response(5.0, 10.0) == pytest.approx(0.2)

    def test_random_split_thins_the_stream(self):
        # lam/n = 4 per backend, rho = 0.4.
        assert ps_random_split_response(8.0, 10.0, 2) == pytest.approx(
            0.1 / 0.6
        )

    def test_dispatcher_covers_edges_only(self):
        assert ps_cloning_response(8.0, 10.0, 4, 1) == (
            ps_random_split_response(8.0, 10.0, 4)
        )
        assert ps_cloning_response(8.0, 10.0, 4, 4) == (
            ps_clone_to_all_response(8.0, 10.0)
        )
        assert ps_cloning_response(8.0, 10.0, 4, 2) is None

    def test_min_of_exponentials(self):
        assert min_of_exponentials_mean(10.0, 4) == pytest.approx(0.025)

    def test_stability_checks(self):
        with pytest.raises(TheoryError):
            ps_clone_to_all_response(10.0, 10.0)
        with pytest.raises(TheoryError):
            ps_random_split_response(25.0, 10.0, 2)


class TestSpeculativeRetry:
    def build(self):
        return SpeculativeRetryBalancer(
            ps_backends(3), threshold=0.15, max_retries=1
        )

    def test_runs_are_bit_identical(self):
        first = run_experiment(self.build())
        second = run_experiment(self.build())
        assert len(first) == len(second) > 1000
        assert np.array_equal(first, second)

    def test_retry_counters_are_deterministic(self):
        counts = []
        for _ in range(2):
            balancer = self.build()
            drive_balancer(balancer, 500, seed=9)
            counts.append((balancer.retries_issued, balancer.cancelled_replicas))
            assert balancer.completed_jobs == 500
        assert counts[0] == counts[1]
        assert counts[0][0] > 0  # threshold low enough to actually hedge

    def test_seed_changes_the_sample_path(self):
        first = run_experiment(self.build(), seed=SEED)
        other = run_experiment(self.build(), seed=SEED + 1)
        n = min(len(first), len(other))
        assert not np.array_equal(first[:n], other[:n])

    def test_max_retries_zero_never_hedges(self):
        balancer = SpeculativeRetryBalancer(
            ps_backends(2), threshold=0.01, max_retries=0
        )
        drive_balancer(balancer, 200, seed=3)
        assert balancer.retries_issued == 0
        assert balancer.cancelled_replicas == 0
        assert balancer.completed_jobs == 200

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            SpeculativeRetryBalancer(ps_backends(2), threshold=0.0)
        with pytest.raises(ValueError):
            SpeculativeRetryBalancer(
                ps_backends(2), threshold=0.1, max_retries=-1
            )


#: Redundancy models pinned by ``redundancy_pins.json``: each builds a
#: fresh balancer over fresh backends.
PINNED_CASES = {
    "clone2-sync-ps": lambda: CloningBalancer(ps_backends(4), clones=2),
    "clone4-sync-ps": lambda: CloningBalancer(ps_backends(4), clones=4),
    "clone2-indep-ps": lambda: CloningBalancer(
        [ProcessorSharingServer(service_distribution=Exponential(rate=10.0),
                                name=f"ps{i}") for i in range(4)],
        clones=2, synchronized=False,
    ),
    "clone2-sync-fcfs": lambda: CloningBalancer(
        [Server(name=f"s{i}") for i in range(4)], clones=2
    ),
    "spec-retry-ps": lambda: SpeculativeRetryBalancer(
        ps_backends(3), threshold=0.15, max_retries=1
    ),
}
PINNED_SEEDS = (11, 12)
PINS_FILE = Path(__file__).parent / "fixtures" / "redundancy_pins.json"


def pinned_outcome(case, seed):
    """Everything a seeded redundancy run must reproduce, as plain data."""
    from repro.engine.report import result_to_dict
    from repro.parallel.protocol import payload_digest

    balancer = PINNED_CASES[case]()
    experiment = Experiment(
        seed=seed, warmup_samples=200, calibration_samples=1000
    )
    experiment.add_source(
        Workload("clone", Exponential(rate=8.0), Exponential(rate=10.0)),
        target=balancer,
    )
    experiment.track_response_time(
        balancer, mean_accuracy=0.1, quantiles={0.95: 0.1}
    )
    result = result_to_dict(experiment.run(max_events=200_000))
    del result["wall_time"]
    outcome = {
        "case": case,
        "seed": seed,
        "result": result,
        "payload_digests": {
            statistic.name: payload_digest(statistic.histogram.to_payload())
            for statistic in experiment.stats
        },
        "cancelled_replicas": balancer.cancelled_replicas,
        "retries_issued": getattr(balancer, "retries_issued", None),
        "now": experiment.simulation.now,
    }
    # Through JSON so tuples and float keys take the fixture's form;
    # floats round-trip exactly.
    return json.loads(json.dumps(outcome))


class TestPinnedRedundancyRuns:
    @pytest.mark.parametrize(
        "pin", json.loads(PINS_FILE.read_text()),
        ids=lambda pin: f"{pin['case']}-seed{pin['seed']}",
    )
    def test_run_equals_recorded_values(self, pin):
        assert pinned_outcome(pin["case"], pin["seed"]) == pin


class TestFastpathCloningGate:
    def test_cloning_balancer_rejected_with_reason(self):
        workload = Workload(
            "clone", Exponential(rate=8.0), Exponential(rate=10.0)
        )
        experiment = Experiment(seed=3)
        balancer = CloningBalancer(ps_backends(2), clones=2)
        experiment.add_source(workload, target=balancer)
        experiment.track_response_time(balancer)
        outcome = qualifies(experiment)
        assert not outcome
        assert "cloning" in outcome.reason.lower()


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    PINS_FILE.write_text(json.dumps(
        [pinned_outcome(case, seed)
         for case in PINNED_CASES for seed in PINNED_SEEDS],
        indent=1,
    ) + "\n")
