"""Multiserver-job (gang scheduling) ground-truth tests.

Three layers pin :class:`repro.datacenter.cluster.MultiserverCluster`:

1. **Gang semantics** — a k-server job holds exactly k servers for its
   whole service; FCFS blocks behind an oversized head; EASY backfill
   admits fitting jobs without ever starving the head.
2. **Bit-level determinism** — the event engine reproduces the
   Baccelli-style stochastic recurrence of
   :mod:`repro.theory.multiserver` start/finish times bit-for-bit from
   the same draws (two independent implementations, one sample path).
3. **Acceptance grid** — full experiment pipelines (source,
   convergence, CI) judged against seeded recurrence references, smoke
   subset always on, full grid under ``REPRO_TEST_FULL=1``.
"""

import os

import numpy as np
import pytest

from repro.datacenter.cluster import ClusterError, MultiserverCluster
from repro.datacenter.job import Job
from repro.distributions import Choice, Exponential
from repro.engine.experiment import Experiment
from repro.engine.fastpath import qualifies
from repro.engine.simulation import Simulation, seeded_rng
from repro.theory.multiserver import (
    multiserver_recurrence,
    reference_mean,
    simulate_reference,
)
from repro.validation import MULTISERVER_FULL_POINTS
from repro.validation.acceptance import _SMOKE_GRIDS, run_acceptance
from repro.workloads.workload import Workload
from tests.test_acceptance_theory import assert_cases_pass, checked_smoke_run

FULL_SCALE = os.environ.get("REPRO_TEST_FULL") == "1"
#: The multiserver smoke grid's fixed spec seed and accuracy.
GRID = _SMOKE_GRIDS["acceptance-multiserver"]


def make_job(job_id, size, need):
    job = Job(job_id, size=size)
    job.servers_needed = need
    return job


def drive(cluster_kwargs, schedule):
    """Run a hand-built arrival schedule; returns (sim, cluster, jobs)."""
    sim = Simulation(seed=1)
    cluster = MultiserverCluster(**cluster_kwargs)
    cluster.bind(sim)
    jobs = []
    for at, size, need in schedule:
        job = make_job(len(jobs) + 1, size, need)
        jobs.append(job)
        sim.schedule_at(at, lambda j=job: cluster.arrive(j))
    sim.run()
    return sim, cluster, jobs


class TestGangSemantics:
    def test_k_server_job_holds_exactly_k_servers(self):
        sim = Simulation(seed=1)
        cluster = MultiserverCluster(8)
        cluster.bind(sim)
        cluster.arrive(make_job(1, 5.0, 3))
        assert cluster.free_servers == 5
        assert cluster.busy_servers == 3
        cluster.arrive(make_job(2, 5.0, 5))
        assert cluster.free_servers == 0
        sim.run(until=5.5)
        # Both gangs complete at t=5; all servers released at once.
        assert cluster.free_servers == 8
        assert cluster.completed_jobs == 2

    def test_oversized_job_is_rejected(self):
        sim = Simulation(seed=1)
        cluster = MultiserverCluster(4)
        cluster.bind(sim)
        with pytest.raises(ClusterError, match="needs 5 servers"):
            cluster.arrive(make_job(1, 1.0, 5))

    def test_fcfs_head_of_line_blocking(self):
        # Job 1 takes 3/4 servers; job 2 needs 4 and blocks; job 3
        # needs 1 and would fit, but FCFS (no backfill) holds it back.
        _, cluster, jobs = drive(
            {"n_servers": 4},
            [(0.0, 10.0, 3), (1.0, 1.0, 4), (2.0, 1.0, 1)],
        )
        assert jobs[0].start_time == 0.0  # simlint: disable=float-time-eq
        assert jobs[1].start_time == 10.0  # waits for all 4  # simlint: disable=float-time-eq
        assert jobs[2].start_time == 11.0  # held behind the blocked head  # simlint: disable=float-time-eq
        assert cluster.backfilled_jobs == 0

    def test_blocking_and_waste_metrics_accumulate(self):
        sim, cluster, _ = drive(
            {"n_servers": 4},
            [(0.0, 10.0, 3), (1.0, 1.0, 4), (2.0, 1.0, 1)],
        )
        # From t=1 to t=10 the head is blocked with 1 idle server.
        assert cluster.blocked_fraction() > 0
        assert cluster.waste_fraction() > 0
        assert 0 < cluster.utilization() <= 1

    def test_backfill_admits_fitting_job(self):
        # Same schedule with backfill: job 3 (1 server, finishes at 3
        # <= reservation 10) is admitted into the idle server.
        _, cluster, jobs = drive(
            {"n_servers": 4, "backfill": True},
            [(0.0, 10.0, 3), (1.0, 1.0, 4), (2.0, 1.0, 1)],
        )
        assert jobs[2].start_time == 2.0  # simlint: disable=float-time-eq
        assert cluster.backfilled_jobs == 1
        assert jobs[1].start_time == 10.0  # head not delayed  # simlint: disable=float-time-eq

    def test_backfill_never_starves_head(self):
        # A long candidate that would overrun the head's reservation
        # (and needs servers the head will use) must NOT be admitted.
        _, cluster, jobs = drive(
            {"n_servers": 4, "backfill": True},
            [(0.0, 10.0, 3), (1.0, 1.0, 4), (2.0, 100.0, 1)],
        )
        assert cluster.backfilled_jobs == 0
        assert jobs[1].start_time == 10.0  # simlint: disable=float-time-eq
        assert jobs[2].start_time == 11.0  # simlint: disable=float-time-eq

    def test_backfill_respects_extra_servers(self):
        # Head needs 2 of 4; 3 are busy until t=10, so its reservation
        # frees 3 servers: extra = 1.  A 1-server candidate of any
        # length fits in the extra capacity and backfills immediately.
        _, cluster, jobs = drive(
            {"n_servers": 4, "backfill": True},
            [(0.0, 10.0, 3), (1.0, 1.0, 2), (2.0, 100.0, 1)],
        )
        assert jobs[2].start_time == 2.0  # simlint: disable=float-time-eq
        assert cluster.backfilled_jobs == 1
        assert jobs[1].start_time == 10.0  # simlint: disable=float-time-eq

    def test_head_reservation_invariant_under_random_load(self):
        """Fuzz: with backfill on, the head job always starts no later
        than the reservation computed at its block instant."""
        rng = seeded_rng(7)
        sim = Simulation(seed=2)
        cluster = MultiserverCluster(8, backfill=True)
        cluster.bind(sim)
        reservations = {}

        jobs = []
        t = 0.0
        for i in range(400):
            t += float(rng.exponential(0.05))
            job = make_job(i + 1, float(rng.exponential(0.4)),
                           int(rng.integers(1, 9)))
            jobs.append(job)

            def arrive(j=job):
                cluster.arrive(j)
                reservation = cluster.head_reservation()
                if reservation is not None:
                    head = cluster._queue[0]
                    # Record the tightest promise made for this head.
                    prior = reservations.get(head.job_id)
                    if prior is None or reservation[0] < prior:
                        reservations[head.job_id] = reservation[0]

            sim.schedule_at(t, arrive)
        sim.run()
        assert cluster.completed_jobs == 400
        assert reservations, "fuzz never produced a blocked head"
        by_id = {job.job_id: job for job in jobs}
        for job_id, promised in reservations.items():
            started = by_id[job_id].start_time
            assert started <= promised + 1e-9, (
                f"job #{job_id} started {started} after its "
                f"reservation {promised}"
            )


class TestRecurrenceEquivalence:
    """The event engine IS the recurrence, bit for bit."""

    def sample_streams(self, seed, n, n_servers):
        rng = seeded_rng(seed)
        gaps = Exponential(rate=2.0).sample_block(rng, n)
        sizes = Exponential(rate=1.0).sample_block(rng, n)
        needs = Choice([1, 2, 4], [0.5, 0.3, 0.2]).sample_block(
            rng, n
        ).astype(int)
        np.clip(needs, 1, n_servers, out=needs)
        return np.cumsum(gaps), sizes, needs

    @pytest.mark.parametrize("seed", [11, 42, 20260809])
    def test_bit_level_equality_with_event_engine(self, seed):
        n, n_servers = 3000, 8
        arrivals, sizes, needs = self.sample_streams(seed, n, n_servers)
        starts_ref, finishes_ref = multiserver_recurrence(
            arrivals, sizes, needs, n_servers
        )
        sim = Simulation(seed=1)
        cluster = MultiserverCluster(n_servers)
        cluster.bind(sim)
        jobs = []
        for i in range(n):
            job = make_job(i + 1, float(sizes[i]), int(needs[i]))
            jobs.append(job)
            sim.schedule_at(float(arrivals[i]), lambda j=job: cluster.arrive(j))
        sim.run()
        starts = np.array([job.start_time for job in jobs])
        finishes = np.array([job.finish_time for job in jobs])
        # Bitwise, not approx: both sides do the identical float ops.
        assert np.array_equal(starts, starts_ref)
        assert np.array_equal(finishes, finishes_ref)

    def test_reference_simulator_is_seed_deterministic(self):
        kwargs = dict(
            interarrival=Exponential(rate=2.0),
            service=Exponential(rate=1.0),
            servers_needed=Choice([1, 2], [0.5, 0.5]),
            n_servers=4, seed=99, n_jobs=20_000, warmup=500,
            quantiles=(0.95,),
        )
        first = simulate_reference(**kwargs)
        second = simulate_reference(**kwargs)
        assert first == second  # frozen dataclass: bit-equal fields

    def test_recurrence_validates_inputs(self):
        from repro.theory.queues import TheoryError

        with pytest.raises(TheoryError, match="length mismatch"):
            multiserver_recurrence([0.0], [1.0, 2.0], [1], 2)
        with pytest.raises(TheoryError, match="needs 3 servers"):
            multiserver_recurrence([0.0], [1.0], [3], 2)
        with pytest.raises(TheoryError, match="rho"):
            reference_mean(10.0, 1.0, 4, [1, 2])

    def test_single_server_jobs_reduce_to_mmk(self):
        """With every need = 1 the recurrence is plain M/M/k; its
        reference mean must agree with the Erlang-C closed form."""
        from repro import theory

        lam, mu, k = 15.0, 5.0, 4
        ref = reference_mean(lam, mu, k, [1], n_jobs=300_000)
        exact = theory.mmk_mean_response(lam, mu, k)
        assert ref == pytest.approx(exact, rel=0.03)


class TestFastpathGate:
    """Multiserver models must never silently take the fastpath."""

    def build(self, engine):
        workload = Workload(
            "msj", Exponential(rate=4.0), Exponential(rate=2.0)
        ).with_servers_needed(Choice([1, 2], [0.5, 0.5]))
        experiment = Experiment(
            seed=3, warmup_samples=100, calibration_samples=300,
            engine=engine,
        )
        cluster = MultiserverCluster(4)
        experiment.add_source(workload, target=cluster)
        experiment.track_response_time(cluster, mean_accuracy=0.1)
        return experiment

    def test_cluster_target_rejected_with_reason(self):
        # No servers_needed on the workload: the station check itself
        # must reject the gang-scheduled cluster.
        workload = Workload("plain", Exponential(rate=4.0), Exponential(rate=2.0))
        experiment = Experiment(seed=3)
        cluster = MultiserverCluster(4)
        experiment.add_source(workload, target=cluster)
        experiment.track_response_time(cluster)
        outcome = qualifies(experiment)
        assert not outcome
        assert "MultiserverCluster" in outcome.reason

    def test_servers_needed_rejected_with_reason(self):
        outcome = qualifies(self.build("event"))
        assert not outcome
        assert "servers_needed" in outcome.reason

    def test_servers_needed_workload_rejected_even_on_plain_server(self):
        from repro.datacenter.server import Server

        workload = Workload(
            "msj", Exponential(rate=4.0), Exponential(rate=2.0)
        ).with_servers_needed(Choice([1], None))
        experiment = Experiment(seed=3)
        experiment.add_source(workload, target=Server())
        experiment.track_response_time(experiment.sources[0].target)
        outcome = qualifies(experiment)
        assert not outcome
        assert "servers_needed" in outcome.reason

    def test_auto_mode_falls_back_bit_identically_to_event(self):
        auto_result = self.build("auto").run(max_events=40_000)
        event_result = self.build("event").run(max_events=40_000)
        # Auto must have taken the event engine (same event count) and
        # produced the identical sample path.
        assert auto_result.events_processed == event_result.events_processed
        auto_report = auto_result.estimates["response_time"]
        event_report = event_result.estimates["response_time"]
        assert auto_report.observed == event_report.observed
        assert auto_report.mean == event_report.mean  # bit-identical


class TestAcceptanceSmoke:
    """Five multiserver/cloning grid points, always on."""

    @pytest.fixture(scope="class")
    def smoke(self):
        return checked_smoke_run("acceptance-multiserver")

    def test_smoke_grid_against_references(self, smoke):
        result, cases = smoke
        assert_cases_pass(cases, result)

    def test_covers_msj_and_cloning(self, smoke):
        _, cases = smoke
        names = " ".join(case.name for case in cases)
        assert "MSJ" in names and "PS-clone" in names

    def test_smoke_is_five_cases(self, smoke):
        _, cases = smoke
        assert len(cases) == 5


@pytest.mark.slow
@pytest.mark.skipif(not FULL_SCALE, reason="set REPRO_TEST_FULL=1")
class TestAcceptanceFullGrid:
    def test_full_grid_against_references(self):
        result, cases = run_acceptance(
            MULTISERVER_FULL_POINTS, accuracy=GRID.accuracy, seed=GRID.seed,
            backend="pool", jobs=4, name="acceptance-multiserver",
        )
        assert len(result.points) == len(MULTISERVER_FULL_POINTS)
        assert_cases_pass(cases, result)
