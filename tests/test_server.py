"""Unit tests for the server model: dispatch, speed scaling, pause/resume."""

import pytest

from repro.datacenter.disciplines import LIFOQueue, SJFQueue
from repro.datacenter.job import Job
from repro.datacenter.server import Server, ServerError
from repro.distributions import Deterministic
from repro.engine.simulation import Simulation


def bound_server(**kwargs):
    sim = Simulation(seed=1)
    server = Server(**kwargs)
    server.bind(sim)
    return sim, server


def inject(sim, server, at, size):
    job = Job(inject.counter, size=size)
    inject.counter += 1
    sim.schedule_at(at, lambda: server.arrive(job))
    return job


inject.counter = 1


class TestConstruction:
    def test_defaults(self):
        server = Server()
        assert server.cores == 1
        assert server.speed == 1.0
        assert server.is_idle

    def test_invalid_parameters(self):
        with pytest.raises(ServerError):
            Server(cores=0)
        with pytest.raises(ServerError):
            Server(speed=0.0)

    def test_bind_twice_same_sim_ok(self):
        sim, server = bound_server()
        server.bind(sim)  # idempotent

    def test_bind_to_second_sim_rejected(self):
        _, server = bound_server()
        with pytest.raises(ServerError):
            server.bind(Simulation(seed=2))

    def test_arrive_unbound_rejected(self):
        server = Server()
        with pytest.raises(ServerError):
            server.arrive(Job(1, size=1.0))


class TestSingleCoreFlow:
    def test_job_timing(self):
        sim, server = bound_server()
        job = inject(sim, server, at=1.0, size=2.0)
        sim.run()
        assert job.start_time == pytest.approx(1.0)
        assert job.finish_time == pytest.approx(3.0)
        assert job.response_time == pytest.approx(2.0)
        assert job.waiting_time == pytest.approx(0.0)

    def test_fcfs_queueing(self):
        sim, server = bound_server()
        first = inject(sim, server, at=0.0, size=2.0)
        second = inject(sim, server, at=1.0, size=1.0)
        sim.run()
        assert second.start_time == pytest.approx(2.0)
        assert second.waiting_time == pytest.approx(1.0)
        assert second.finish_time == pytest.approx(3.0)
        assert first.finish_time == pytest.approx(2.0)

    def test_zero_size_job(self):
        sim, server = bound_server()
        job = inject(sim, server, at=1.0, size=0.0)
        sim.run()
        assert job.finish_time == pytest.approx(1.0)

    def test_completion_counter_and_listener(self):
        sim, server = bound_server()
        finished = []
        server.on_complete(lambda job, srv: finished.append(job.job_id))
        a = inject(sim, server, at=0.0, size=1.0)
        b = inject(sim, server, at=0.5, size=1.0)
        sim.run()
        assert finished == [a.job_id, b.job_id]
        assert server.completed_jobs == 2

    def test_custom_discipline(self):
        sim, server_lifo = Simulation(seed=1), Server(discipline=LIFOQueue())
        server_lifo.bind(sim)
        first = Job(100, size=10.0)
        sim.schedule_at(0.0, lambda: server_lifo.arrive(first))
        early = Job(101, size=1.0)
        late = Job(102, size=1.0)
        sim.schedule_at(1.0, lambda: server_lifo.arrive(early))
        sim.schedule_at(2.0, lambda: server_lifo.arrive(late))
        sim.run()
        # LIFO: the late job is served before the early one.
        assert late.start_time < early.start_time

    def test_cancel_queued_job_on_sjf_server(self):
        sim, server = bound_server(discipline=SJFQueue())
        finished = []
        server.on_complete(lambda job, _server: finished.append(job.job_id))
        running = inject(sim, server, at=0.0, size=10.0)
        long, short, middle = (
            inject(sim, server, at=1.0, size=size) for size in (3.0, 1.0, 2.0)
        )
        outcomes = []
        sim.schedule_at(2.0, lambda: outcomes.extend(
            [server.cancel(middle), server.cancel(middle)]
        ))
        sim.run()
        assert outcomes == [True, False]
        assert finished == [running.job_id, short.job_id, long.job_id]
        assert middle.start_time is None
        assert server.completed_jobs == 3


class TestMultiCore:
    def test_parallel_service(self):
        sim, server = bound_server(cores=2)
        a = inject(sim, server, at=0.0, size=2.0)
        b = inject(sim, server, at=0.0, size=2.0)
        sim.run()
        assert a.finish_time == pytest.approx(2.0)
        assert b.finish_time == pytest.approx(2.0)

    def test_third_job_waits(self):
        sim, server = bound_server(cores=2)
        inject(sim, server, at=0.0, size=2.0)
        inject(sim, server, at=0.0, size=2.0)
        c = inject(sim, server, at=0.0, size=1.0)
        sim.run()
        assert c.start_time == pytest.approx(2.0)
        assert c.finish_time == pytest.approx(3.0)

    def test_occupancy_counts(self):
        sim, server = bound_server(cores=4)
        for _ in range(6):
            inject(sim, server, at=1.0, size=5.0)
        sim.run(until=2.0)
        assert server.busy_cores == 4
        assert server.queue_length == 2
        assert server.outstanding == 6
        assert server.utilization_now() == pytest.approx(1.0)


class TestSpeedScaling:
    def test_speed_divides_service_time(self):
        sim, server = bound_server(speed=2.0)
        job = inject(sim, server, at=0.0, size=2.0)
        sim.run()
        assert job.finish_time == pytest.approx(1.0)

    def test_midflight_rescale(self):
        sim, server = bound_server()
        job = inject(sim, server, at=0.0, size=2.0)
        # At t=1, half the work remains; halving speed doubles what's left.
        sim.schedule_at(1.0, lambda: server.set_speed(0.5))
        sim.run()
        assert job.finish_time == pytest.approx(3.0)

    def test_speedup_midflight(self):
        sim, server = bound_server()
        job = inject(sim, server, at=0.0, size=2.0)
        sim.schedule_at(1.0, lambda: server.set_speed(4.0))
        sim.run()
        assert job.finish_time == pytest.approx(1.25)

    def test_noop_speed_change(self):
        sim, server = bound_server()
        job = inject(sim, server, at=0.0, size=1.0)
        sim.schedule_at(0.5, lambda: server.set_speed(1.0))
        sim.run()
        assert job.finish_time == pytest.approx(1.0)

    def test_zero_speed_rejected(self):
        _, server = bound_server()
        with pytest.raises(ServerError):
            server.set_speed(0.0)

    def test_rescale_applies_to_queued_jobs_on_start(self):
        sim, server = bound_server()
        inject(sim, server, at=0.0, size=1.0)
        queued = inject(sim, server, at=0.0, size=1.0)
        sim.schedule_at(0.2, lambda: server.set_speed(2.0))
        sim.run()
        # First job: 0.2 at speed 1 (0.8 left) then 0.8/2 = 0.4 -> 0.6
        # Queued job starts at 0.6, runs 0.5 at speed 2 -> 1.1
        assert queued.finish_time == pytest.approx(1.1)


class TestPauseResume:
    def test_pause_freezes_progress(self):
        sim, server = bound_server()
        job = inject(sim, server, at=0.0, size=2.0)
        sim.schedule_at(1.0, lambda: server.pause())
        sim.schedule_at(5.0, lambda: server.resume())
        sim.run()
        assert job.finish_time == pytest.approx(6.0)

    def test_arrivals_queue_while_paused(self):
        sim, server = bound_server()
        sim.schedule_at(0.0, lambda: server.pause())
        job = inject(sim, server, at=1.0, size=1.0)
        sim.schedule_at(3.0, lambda: server.resume())
        sim.run()
        assert job.start_time == pytest.approx(3.0)
        assert job.finish_time == pytest.approx(4.0)

    def test_paused_server_holds_no_pending_completion(self):
        # The job path integrates busy time with no paused branch: it
        # relies on pause() disarming every completion and on nothing
        # starting while paused.
        sim, server = bound_server(cores=2)
        running = inject(sim, server, at=0.0, size=5.0)
        sim.schedule_at(1.0, lambda: server.pause())
        late = inject(sim, server, at=2.0, size=1.0)
        sim.run(until=3.0)
        assert running._completion_event is None
        assert len(sim.events) == 0
        assert late.start_time is None
        assert server.busy_cores == 1 and server.queue_length == 1
        server.resume()
        sim.run()
        assert late.start_time == pytest.approx(3.0)
        assert running.finish_time == pytest.approx(7.0)

    def test_double_pause_resume_are_noops(self):
        sim, server = bound_server()
        server.pause()
        server.pause()
        server.resume()
        server.resume()
        assert not server.paused

    def test_speed_change_while_paused(self):
        sim, server = bound_server()
        job = inject(sim, server, at=0.0, size=2.0)
        sim.schedule_at(1.0, lambda: server.pause())
        sim.schedule_at(2.0, lambda: server.set_speed(2.0))
        sim.schedule_at(3.0, lambda: server.resume())
        sim.run()
        # 1s at speed 1 (1 unit left), paused 2s, then 1/2 = 0.5s
        assert job.finish_time == pytest.approx(3.5)

    def test_paused_seconds_accounted(self):
        sim, server = bound_server()
        sim.schedule_at(1.0, lambda: server.pause())
        sim.schedule_at(4.0, lambda: server.resume())
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert server.paused_seconds() == pytest.approx(3.0)


class TestUtilizationAccounting:
    def test_busy_core_seconds(self):
        sim, server = bound_server(cores=2)
        inject(sim, server, at=0.0, size=2.0)
        inject(sim, server, at=1.0, size=2.0)
        sim.run()
        assert server.busy_core_seconds() == pytest.approx(4.0)

    def test_idle_seconds(self):
        sim, server = bound_server()
        inject(sim, server, at=1.0, size=1.0)
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        assert server.idle_seconds() == pytest.approx(4.0)

    def test_utilization_since_marker_resets(self):
        sim, server = bound_server()
        inject(sim, server, at=0.0, size=1.0)
        sim.run(until=2.0)
        assert server.utilization_since_marker() == pytest.approx(0.5)
        # Fully idle second epoch.
        sim.schedule_at(4.0, lambda: None)
        sim.run()
        assert server.utilization_since_marker() == pytest.approx(0.0)


class TestServiceDrawAndForwarding:
    def test_server_draws_size_when_missing(self):
        sim = Simulation(seed=1)
        server = Server(service_distribution=Deterministic(1.5))
        server.bind(sim)
        job = Job(1)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        sim.run()
        assert job.size == pytest.approx(1.5)
        assert job.finish_time == pytest.approx(1.5)

    def test_sizeless_without_distribution_rejected(self):
        sim, server = bound_server()
        job = Job(1)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        with pytest.raises(ServerError):
            sim.run()

    def test_two_tier_pipeline(self):
        sim = Simulation(seed=1)
        tier2 = Server(service_distribution=Deterministic(0.5), name="t2")
        tier1 = Server(forward_to=tier2, name="t1")
        tier1.bind(sim)  # binds tier2 transitively
        job = Job(1, size=1.0)
        job.arrival_time = 0.0
        sim.schedule_at(0.0, lambda: tier1.arrive(job))
        done = []
        tier2.on_complete(lambda j, s: done.append(j))
        sim.run()
        assert done and done[0] is job
        assert job.stages_completed == 1
        # Stage 1 took 1.0, stage 2 drew 0.5: finished at 1.5.
        assert job.finish_time == pytest.approx(1.5)
        assert sim.now == pytest.approx(1.5)
