"""Unit tests for the Job task abstraction."""

import pytest

from repro.datacenter.job import Job


class TestJob:
    def test_construction_defaults(self):
        job = Job(1, size=2.0)
        assert job.size == 2.0
        assert job.remaining == 2.0
        assert job.arrival_time is None
        assert job.delay_used == 0.0

    def test_sizeless_job(self):
        job = Job(2)
        assert job.size is None
        assert job.remaining is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Job(3, size=-1.0)

    def test_response_time(self):
        job = Job(4, size=1.0)
        job.arrival_time = 10.0
        job.finish_time = 13.0
        assert job.response_time == pytest.approx(3.0)

    def test_waiting_time(self):
        job = Job(5, size=1.0)
        job.arrival_time = 10.0
        job.start_time = 11.5
        assert job.waiting_time == pytest.approx(1.5)

    def test_unfinished_job_raises(self):
        job = Job(6, size=1.0)
        job.arrival_time = 0.0
        with pytest.raises(ValueError):
            _ = job.response_time
        with pytest.raises(ValueError):
            _ = job.waiting_time

    def test_zero_size_allowed(self):
        assert Job(7, size=0.0).size == 0.0


def slot_values(job, *skip):
    """Every slot but ``skip``; an unset slot raises AttributeError."""
    return {
        slot: getattr(job, slot) for slot in Job.__slots__ if slot not in skip
    }


class TestFastConstructors:
    """Source._emit and Job._replica build jobs without __init__: each
    must set every slot, equal to a job built the slow way."""

    def test_source_emitted_job(self):
        from repro.datacenter.source import Source
        from repro.distributions import Exponential
        from repro.engine.simulation import Simulation
        from repro.workloads.workload import Workload

        emitted = []

        class Sink:
            def bind(self, sim):
                pass

            def arrive(self, job):
                emitted.append(job)

        sim = Simulation(seed=1)
        Source(
            Workload("w", Exponential(rate=1.0), Exponential(rate=2.0)),
            Sink(), max_jobs=1,
        ).bind(sim)
        sim.run()
        (job,) = emitted
        slow = Job(0, size=job.size)
        slow.arrival_time = sim.now
        assert slot_values(job, "job_id") == slot_values(slow, "job_id")

    @pytest.mark.parametrize("size", [2.5, None])
    def test_replica(self, size):
        logical = Job(5, size=2.5)
        logical.arrival_time = 3.0
        logical.start_time = 4.0
        logical.delay_used = 0.5
        logical.job_class = "gold"
        logical.servers_needed = 2
        replica = logical._replica(size)
        slow = Job(0, size=size)
        slow.arrival_time = 3.0
        slow.job_class = "gold"
        slow.servers_needed = 2
        skip = ("job_id", "clone_of")
        assert slot_values(replica, *skip) == slot_values(slow, *skip)
        assert replica.clone_of is logical
        assert replica.job_id != logical._replica(size).job_id
