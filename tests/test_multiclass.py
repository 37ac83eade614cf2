"""Tests for multi-class traffic and priority scheduling."""

import pytest

from repro import Experiment, Server
from repro.datacenter.job import Job
from repro.datacenter.multiclass import (
    JobClass,
    MultiClassSource,
    PriorityQueue,
    job_class_of,
    track_per_class_response,
)
from repro.distributions import Deterministic, Exponential
from repro.engine.simulation import Simulation
from repro.theory import cobham_waiting_times


def two_classes(interactive_mean=0.05, batch_mean=0.2):
    return [
        JobClass("interactive", priority=0,
                 service=Exponential.from_mean(interactive_mean), weight=1.0),
        JobClass("batch", priority=1,
                 service=Exponential.from_mean(batch_mean), weight=1.0),
    ]


class TestJobClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobClass("x", priority=-1, service=Deterministic(1.0))
        with pytest.raises(ValueError):
            JobClass("x", priority=0, service=Deterministic(1.0), weight=0.0)


class TestPriorityQueue:
    def test_orders_by_class_priority(self):
        queue = PriorityQueue()
        hi, lo = two_classes()
        urgent = Job(1, size=1.0)
        lazy = Job(2, size=1.0)
        from repro.datacenter.multiclass import _stamp

        _stamp(lazy, lo)
        _stamp(urgent, hi)
        queue.push(lazy)
        queue.push(urgent)
        assert queue.pop() is urgent
        assert queue.pop() is lazy

    def test_fcfs_within_class(self):
        queue = PriorityQueue()
        hi, _ = two_classes()
        from repro.datacenter.multiclass import _stamp

        first = Job(1, size=1.0)
        second = Job(2, size=1.0)
        for job in (first, second):
            _stamp(job, hi)
            queue.push(job)
        assert queue.pop() is first

    def test_unclassified_jobs_are_lowest(self):
        queue = PriorityQueue()
        _, lo = two_classes()
        from repro.datacenter.multiclass import _stamp

        classified = Job(1, size=1.0)
        _stamp(classified, lo)
        plain = Job(2, size=1.0)
        queue.push(plain)
        queue.push(classified)
        assert queue.pop() is classified
        assert queue.pop() is plain

    def test_len_and_empty(self):
        queue = PriorityQueue()
        assert len(queue) == 0
        assert queue.pop() is None


class TestMultiClassSource:
    def test_validation(self):
        with pytest.raises(ValueError):
            MultiClassSource(Exponential(rate=1.0), [], Server())
        duplicate = [
            JobClass("a", 0, Deterministic(1.0)),
            JobClass("a", 1, Deterministic(1.0)),
        ]
        with pytest.raises(ValueError):
            MultiClassSource(Exponential(rate=1.0), duplicate, Server())

    def test_mixture_fractions(self):
        sim = Simulation(seed=7)
        classes = [
            JobClass("a", 0, Deterministic(1e-6), weight=3.0),
            JobClass("b", 1, Deterministic(1e-6), weight=1.0),
        ]
        server = Server(cores=4)
        source = MultiClassSource(
            Exponential(rate=100.0), classes, server, max_jobs=2000
        )
        source.bind(sim)
        sim.run()
        fraction = source.generated_by_class["a"] / source.generated
        assert fraction == pytest.approx(0.75, abs=0.04)

    def test_jobs_stamped_and_sized_by_class(self):
        sim = Simulation(seed=3)
        classes = [JobClass("only", 0, Deterministic(0.125))]
        server = Server()
        seen = []
        server.on_arrival(
            lambda job, srv: seen.append((job.size, job_class_of(job).name))
        )
        source = MultiClassSource(
            Exponential(rate=10.0), classes, server, max_jobs=5
        )
        source.bind(sim)
        sim.run()
        assert all(entry == (0.125, "only") for entry in seen)


class TestCobham:
    def test_single_class_reduces_to_pk(self):
        from repro.theory import mg1_mean_waiting

        service = Exponential.from_mean(0.05)
        wait = cobham_waiting_times([10.0], [service])[0]
        assert wait == pytest.approx(mg1_mean_waiting(10.0, service))

    def test_high_priority_waits_less(self):
        services = [Exponential.from_mean(0.05), Exponential.from_mean(0.05)]
        waits = cobham_waiting_times([5.0, 5.0], services)
        assert waits[0] < waits[1]

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            cobham_waiting_times([30.0], [Exponential.from_mean(0.05)])

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            cobham_waiting_times([1.0, 2.0], [Exponential.from_mean(0.1)])
        with pytest.raises(ValueError):
            cobham_waiting_times([], [])


class TestEndToEndPriorities:
    def test_track_per_class_helper(self):
        classes = two_classes()
        experiment = Experiment(seed=43, warmup_samples=100,
                                calibration_samples=800)
        server = Server(cores=1, discipline=PriorityQueue())
        source = MultiClassSource(Exponential(rate=8.0), classes, server)
        source.bind(experiment.simulation)
        experiment.sources.append(source)
        names = track_per_class_response(
            experiment, server, classes, mean_accuracy=0.1
        )
        assert names == ["response_time[interactive]", "response_time[batch]"]
        result = experiment.run(max_events=5_000_000)
        assert result["response_time[interactive]"].mean < result[
            "response_time[batch]"
        ].mean
