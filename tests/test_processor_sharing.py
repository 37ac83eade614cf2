"""Unit tests for the processor-sharing station."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datacenter.balancers import CloningBalancer
from repro.datacenter.job import Job
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.server import ServerError
from repro.distributions import Deterministic, Exponential
from repro.engine.simulation import Simulation

#: ``REPRO_TEST_FULL=1`` runs the property tests against the naive oracle
#: at ten times their examples.
FULL_SCALE = os.environ.get("REPRO_TEST_FULL") == "1"


def bound_ps(**kwargs):
    sim = Simulation(seed=1)
    server = ProcessorSharingServer(**kwargs)
    server.bind(sim)
    return sim, server


class TestMechanics:
    def test_single_job_runs_at_full_speed(self):
        sim, server = bound_ps()
        job = Job(1, size=2.0)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        sim.run()
        assert job.finish_time == pytest.approx(2.0)

    def test_two_jobs_share_equally(self):
        sim, server = bound_ps()
        a = Job(1, size=1.0)
        b = Job(2, size=1.0)
        sim.schedule_at(0.0, lambda: server.arrive(a))
        sim.schedule_at(0.0, lambda: server.arrive(b))
        sim.run()
        # Two unit jobs sharing one processor: both finish at t=2.
        assert a.finish_time == pytest.approx(2.0)
        assert b.finish_time == pytest.approx(2.0)

    def test_short_job_overtakes_under_sharing(self):
        sim, server = bound_ps()
        long_job = Job(1, size=10.0)
        short_job = Job(2, size=0.5)
        sim.schedule_at(0.0, lambda: server.arrive(long_job))
        sim.schedule_at(1.0, lambda: server.arrive(short_job))
        sim.run()
        # Short job shares from t=1: gets 0.5 rate, finishes at t=2.
        assert short_job.finish_time == pytest.approx(2.0)
        # Long job: 1 unit by t=1, then 0.5/s until short leaves (t=2:
        # 1.5 done), then full speed for remaining 8.5 -> t=10.5.
        assert long_job.finish_time == pytest.approx(10.5)

    def test_speed_parameter(self):
        sim, server = bound_ps(speed=2.0)
        job = Job(1, size=2.0)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        sim.run()
        assert job.finish_time == pytest.approx(1.0)

    def test_per_job_rate(self):
        sim, server = bound_ps()
        for i in range(4):
            job = Job(i + 1, size=10.0)
            sim.schedule_at(0.0, lambda j=job: server.arrive(j))
        sim.run(until=0.5)
        assert server.outstanding == 4
        assert server.per_job_rate == pytest.approx(0.25)

    def test_service_distribution_draw(self):
        sim = Simulation(seed=1)
        server = ProcessorSharingServer(service_distribution=Deterministic(0.5))
        server.bind(sim)
        job = Job(1)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        sim.run()
        assert job.finish_time == pytest.approx(0.5)

    def test_sizeless_without_distribution_rejected(self):
        sim, server = bound_ps()
        job = Job(1)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        with pytest.raises(ServerError):
            sim.run()

    def test_completion_listener(self):
        sim, server = bound_ps()
        done = []
        server.on_complete(lambda job, srv: done.append(job.job_id))
        job = Job(7, size=1.0)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        sim.run()
        assert done == [7]
        assert server.completed_jobs == 1

    def test_validation(self):
        with pytest.raises(ServerError):
            ProcessorSharingServer(speed=0.0)
        server = ProcessorSharingServer()
        with pytest.raises(ServerError):
            server.arrive(Job(1, size=1.0))


class NaivePS:
    """The station as first written, kept as the oracle.

    Three separate steps per membership change -- a debit walk, ``min`` by
    ``remaining``, then cancel + ``schedule_in`` -- through the public
    ``Simulation`` API only.  ``src/`` never imports it, and it shares no
    code with ``ProcessorSharingServer._settle``: the two must agree
    exactly, not approximately.  ``_jobs``, ``_completion_event`` and
    ``on_complete`` are named as on the station so the script players
    below read both,
    and ``bind``/``cancel`` let a balancer drive it.  A sizeless job draws
    ``service.sample`` from a stream spawned at bind, as the station's
    sampler does.
    """

    def __init__(self, sim, speed=1.0, service=None):
        self.sim = sim
        self.speed = speed
        self.service = service
        self.rng = None
        self._jobs = {}
        self._completion_event = None
        self.last_progress = sim.now
        self.completed_jobs = 0
        self.listeners = []

    def bind(self, sim):
        if self.service is not None:
            self.rng = sim.spawn_rng()

    def on_complete(self, listener):
        self.listeners.append(listener)

    def advance(self):
        elapsed = self.sim.now - self.last_progress
        if elapsed > 0 and self._jobs:
            per_job = elapsed * self.speed / len(self._jobs)
            for job in self._jobs.values():
                job.remaining = max(0.0, job.remaining - per_job)
        self.last_progress = self.sim.now

    def reschedule(self):
        if self._completion_event is not None:
            self.sim.cancel(self._completion_event)
            self._completion_event = None
        if self._jobs:
            soonest = min(self._jobs.values(), key=lambda job: job.remaining)
            delay = soonest.remaining * len(self._jobs) / self.speed
            self._completion_event = self.sim.schedule_in(
                delay, lambda: self.complete(soonest)
            )

    def arrive(self, job):
        if job.size is None:
            job.size = job.remaining = self.service.sample(self.rng)
        job.arrival_time = job.start_time = self.sim.now
        self.advance()
        self._jobs[job.job_id] = job
        self.reschedule()

    def cancel(self, job):
        if job.job_id not in self._jobs:
            return False
        self.advance()
        del self._jobs[job.job_id]
        self.reschedule()
        return True

    def complete(self, job):
        self._completion_event = None
        self.advance()
        del self._jobs[job.job_id]
        job.remaining = 0.0
        job.finish_time = self.sim.now
        self.completed_jobs += 1
        for listener in self.listeners:
            listener(job, self)
        self.reschedule()


#: Gaps and sizes drawn from small pools, so that zero-gap arrivals, equal
#: sizes and ties in ``remaining`` are the common case, not the rare one.
GAPS = st.sampled_from([0.0, 0.0, 0.125, 0.25, 0.3, 1.0, 2.5])
SIZES = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=1e-3, max_value=8.0),
)
STEPS = st.lists(
    st.one_of(
        # (gap, "arrive", size, size of the job its completion re-admits)
        st.tuples(GAPS, st.just("arrive"), SIZES, st.none() | SIZES),
        # (gap, "cancel", which admitted job -- finished ones included)
        st.tuples(GAPS, st.just("cancel"), st.integers(0, 63)),
        # (gap, "cancel-soonest"): the job the pending completion is for
        st.tuples(GAPS, st.just("cancel-soonest")),
    ),
    min_size=1,
    max_size=40,
)


def play(steps, speed, make_station):
    """Run one script; returns everything the two stations must agree on."""
    sim = Simulation(seed=1)
    station = make_station(sim, speed)
    admitted = []
    respawn = {}  # job id -> size of the job its completion re-admits
    log = []

    def admit(size, respawn_size):
        job = Job(len(admitted) + 1, size=size)
        if respawn_size is not None:
            respawn[job.job_id] = respawn_size
        admitted.append(job)
        station.arrive(job)

    def snapshot(what):
        event = station._completion_event
        log.append((
            what, sim.now, event and (event[0], event[1]), len(sim.events),
            [(job.job_id, job.remaining, job.finish_time) for job in admitted],
        ))

    def reenter(job, _station):
        # A completion listener that re-enters arrive() on the same station.
        if job.job_id in respawn:
            admit(respawn.pop(job.job_id), None)
        snapshot("complete")

    station.on_complete(reenter)

    def step(kind, *args):
        if kind == "arrive":
            admit(*args)
        elif kind == "cancel" and admitted:
            job = admitted[args[0] % len(admitted)]
            log.append(station.cancel(job))
        elif kind == "cancel-soonest" and station._jobs:
            job = min(station._jobs.values(), key=lambda job: job.remaining)
            log.append(station.cancel(job))
        snapshot(kind)

    clock = 0.0
    for gap, kind, *args in steps:
        clock += gap
        sim.schedule_at(clock, lambda kind=kind, args=args: step(kind, *args))
    sim.run()
    return log, station.completed_jobs, sim.events_processed, sim.now


def real_station(sim, speed):
    station = ProcessorSharingServer(speed=speed)
    station.bind(sim)
    return station


class TestAgainstNaiveOracle:
    @settings(max_examples=3000 if FULL_SCALE else 300, deadline=None)
    @given(steps=STEPS, speed=st.sampled_from([1.0, 0.75, 3.0]))
    def test_identical_to_the_three_step_algorithm(self, steps, speed):
        # ==, not approx: finish times, every job's remaining (withdrawn
        # ones included), completion counts, events processed, and after
        # every step the (time, seq) of the pending completion and the
        # queue's live count (the oracle cancels through sim.cancel).
        assert play(steps, speed, real_station) == play(steps, speed, NaivePS)

    def test_cancel_of_the_job_about_to_complete(self):
        steps = [(0.0, "arrive", 1.0, None), (0.0, "arrive", 2.0, 0.5),
                 (0.5, "cancel-soonest"), (0.0, "arrive", 1.5, None)]
        real = play(steps, 1.0, real_station)
        assert real == play(steps, 1.0, NaivePS)
        log, completed, _events, _now = real
        assert True in log  # the cancel found its job
        assert completed == 3  # two survivors and the re-admitted job


def play_cloning(steps, clones, synchronized, speed, make_station):
    """Run one script through a clone-to-``clones`` balancer over four
    stations; returns a snapshot per step and per logical completion."""
    sim = Simulation(seed=1)
    service = None if synchronized else Exponential(rate=1.0)
    balancer = CloningBalancer(
        [make_station(sim, speed, service) for _ in range(4)],
        clones=clones, synchronized=synchronized,
    )
    balancer.bind(sim)
    logical = []
    respawn = {}  # logical id -> size of the job its completion admits
    log = []

    def admit(size, respawn_size):
        job = Job(len(logical) + 1, size=size)
        if respawn_size is not None:
            respawn[job.job_id] = respawn_size
        logical.append(job)
        balancer.arrive(job)

    def snapshot(what):
        log.append((
            what, sim.now, sim.events_processed, len(sim.events),
            balancer.cancelled_replicas,
            [job.finish_time for job in logical],
            [station._completion_event and station._completion_event[:2]
             for station in balancer.servers],
        ))

    def finished(job, _balancer):
        # Admitted from inside a station's completion listener, so its
        # replicas may re-enter the very station that is completing.
        if job.job_id in respawn:
            admit(respawn.pop(job.job_id), None)
        snapshot("complete")

    balancer.on_complete(finished)
    clock = 0.0
    arrivals = []
    for gap, size, respawn_size in steps:
        clock += gap
        arrivals.append(clock)
        sim.schedule_at(
            clock, lambda size=size, again=respawn_size: admit(size, again)
        )
    for clock in arrivals:
        sim.run(until=clock)
        snapshot("step")
    sim.run()
    snapshot("end")
    return log


def real_backend(sim, speed, service):
    return ProcessorSharingServer(speed=speed, service_distribution=service)


def naive_backend(sim, speed, service):
    return NaivePS(sim, speed, service)


class TestBalancerAgainstNaiveOracle:
    """The oracle again, with a cloning balancer in front: sibling cancels
    and re-admissions fire from inside completion listeners."""

    @settings(max_examples=2000 if FULL_SCALE else 200, deadline=None)
    @given(
        steps=st.lists(
            # (gap, logical size, size of the job its completion admits)
            st.tuples(GAPS, SIZES, st.none() | SIZES),
            min_size=1, max_size=25,
        ),
        clones=st.integers(1, 4),
        synchronized=st.booleans(),
        speed=st.sampled_from([1.0, 0.75, 3.0]),
    )
    def test_identical_to_the_three_step_algorithm(
        self, steps, clones, synchronized, speed
    ):
        # ==, not approx: logical finish times, cancelled replicas, events
        # processed, the queue's live count and every backend's pending
        # (time, seq), each step.
        args = (steps, clones, synchronized, speed)
        assert play_cloning(*args, real_backend) == play_cloning(
            *args, naive_backend
        )

    def test_readmission_into_the_completing_station(self):
        # Job 1 finishes first on a backend of its own; the job its
        # completion admits has a replica there, so that station's re-arm
        # must walk again: a station that re-arms from its first walk
        # regardless fails here.
        steps = [(0.0, 0.25, 0.25), (0.0, 0.25, None)]
        real = play_cloning(steps, 3, True, 1.0, real_backend)
        assert real == play_cloning(steps, 3, True, 1.0, naive_backend)
        assert real[-1][5] == [0.25, 0.25, 0.5]
