"""Unit tests for the event queue and simulation clock."""

import pytest

from repro.datacenter.balancers import CloningBalancer
from repro.datacenter.job import Job
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.server import Server
from repro.datacenter.srpt import SRPTServer
from repro.distributions import Exponential
from repro.engine.events import (
    CANCELLED,
    EV_CALLBACK,
    EV_STATE,
    EV_TIME,
    PENDING,
    EventQueue,
    SimulationError,
)
from repro.engine.experiment import Experiment
from repro.engine.simulation import Simulation
from repro.workloads.workload import Workload


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(3.0, lambda: fired.append("c"))
        queue.schedule(1.0, lambda: fired.append("a"))
        queue.schedule(2.0, lambda: fired.append("b"))
        while (event := queue.pop()) is not None:
            event[EV_CALLBACK]()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        queue = EventQueue()
        first = queue.schedule(1.0, lambda: None)
        second = queue.schedule(1.0, lambda: None)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        victim = queue.schedule(1.0, lambda: None)
        survivor = queue.schedule(2.0, lambda: None)
        queue.cancel(victim)
        assert len(queue) == 1
        assert queue.pop() is survivor
        assert queue.pop() is None

    def test_double_cancel_rejected(self):
        queue = EventQueue()
        event = queue.schedule(1.0, lambda: None)
        queue.cancel(event)
        with pytest.raises(SimulationError):
            queue.cancel(event)

    def test_len_counts_live_only(self):
        queue = EventQueue()
        events = [queue.schedule(float(i), lambda: None) for i in range(5)]
        assert len(queue) == 5
        queue.cancel(events[2])
        assert len(queue) == 4

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        early = queue.schedule(1.0, lambda: None)
        queue.schedule(2.0, lambda: None)
        queue.cancel(early)
        assert queue.peek_time() == pytest.approx(2.0)

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop() is None
        assert EventQueue().peek_time() is None

    def test_cancel_after_fire_rejected(self):
        """A fired event is not cancellable — and the attempt must not
        corrupt the live-event count (the dead-entry counter used to be
        incremented even though the record had already left the heap)."""
        queue = EventQueue()
        fired = queue.schedule(1.0, lambda: None)
        keeper = queue.schedule(2.0, lambda: None)
        assert queue.pop() is fired
        with pytest.raises(SimulationError, match="already-fired"):
            queue.cancel(fired)
        assert len(queue) == 1
        assert queue.pop() is keeper
        assert queue.pop() is None

    def test_cancel_error_names_the_callback(self):
        """An untraced run's cancel error still says which event it is
        about: the callback's qualified name, through a partial."""
        sim = Simulation()
        server = Server()
        server.bind(sim)
        job = Job(1, size=1.0)
        sim.schedule_at(0.0, lambda: server.arrive(job))
        sim.run(until=0.5)
        completion = job._completion_event
        sim.run()
        with pytest.raises(SimulationError, match="already-fired") as error:
            sim.cancel(completion)
        assert "Server._complete" in str(error.value)

    def test_cancel_after_fire_via_simulation(self):
        sim = Simulation()
        handle = sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="already-fired"):
            sim.cancel(handle)
        assert len(sim.events) == 0

    def test_compaction_preserves_order_and_len(self):
        """Cancelling more than half of a large heap triggers in-place
        compaction; survivors must still pop in time order."""
        queue = EventQueue()
        heap_ref = queue._heap  # loop-style direct reference
        events = [queue.schedule(float(i), lambda: None) for i in range(600)]
        for event in events[::2] + events[1::4]:  # cancel ~75%
            queue.cancel(event)
        live = [e for e in events if e[3] == 0]  # still PENDING
        assert len(queue) == len(live)
        # Compaction happened in place: the loop's reference is still the heap.
        assert queue._heap is heap_ref
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event[EV_TIME])
        assert popped == [e[EV_TIME] for e in live]


class TestRecordLayout:
    def test_inlined_pushes_build_the_queue_record(self):
        """Source, Server and ProcessorSharingServer push event records
        straight onto the heap; every entry must have the layout
        ``EventQueue.schedule`` builds."""
        experiment = Experiment(seed=5)
        workload = Workload(
            "layout", Exponential(rate=8.0), Exponential(rate=10.0)
        )
        for station in (Server(cores=2), ProcessorSharingServer(),
                        SRPTServer()):
            experiment.add_source(workload, target=station)
        experiment.simulation.run(max_events=5_000)
        heap = experiment.simulation.events._heap
        width = len(EventQueue().schedule(0.0, lambda: None))
        assert heap
        assert {len(event) for event in heap} == {width}
        assert {event[EV_STATE] for event in heap} <= {PENDING, CANCELLED}

    def test_inline_cancels_keep_the_queue_counts(self):
        """PS stations cancel their pending record inline, not through
        ``EventQueue.cancel``; after a cloning run over them the live
        count and the dead count must still match the heap."""
        experiment = Experiment(seed=11)
        balancer = CloningBalancer(
            [ProcessorSharingServer() for _ in range(4)], clones=3
        )
        experiment.add_source(
            Workload("clones", Exponential(rate=8.0), Exponential(rate=10.0)),
            target=balancer,
        )
        experiment.simulation.run(max_events=20_000)
        events = experiment.simulation.events
        states = [event[EV_STATE] for event in events._heap]
        assert balancer.cancelled_replicas > 0
        assert states.count(CANCELLED) > 0
        assert len(events) == states.count(PENDING)
        assert events._dead == states.count(CANCELLED)

    def test_inline_cancels_compact_like_the_queue(self):
        """A PS station re-arming over a heap padded past ``COMPACT_MIN``
        compacts it in place, step for step as ``EventQueue.cancel``
        would, and the queue then pops in the same order."""
        pad = EventQueue.COMPACT_MIN
        sim = Simulation()
        twin = EventQueue()
        for i in range(pad):
            sim.schedule_at(1000.0 + i, lambda: None)
            twin.schedule(1000.0 + i, lambda: None)
        station = ProcessorSharingServer()
        station.bind(sim)
        heap = sim.events._heap
        mirrored = None
        for i in range(2 * pad):
            # Every arrival re-arms the station, cancelling its last record.
            station.arrive(Job(i + 1, size=float(2 * pad - i)))
            armed = station._completion_event
            if mirrored is not None:
                twin.cancel(mirrored)
            mirrored = twin.schedule(armed[EV_TIME], lambda: None)
            assert armed[:2] == mirrored[:2]
            assert sim.events._dead == twin._dead
            assert len(heap) == len(twin._heap)
        assert sim.events._heap is heap  # compacted in place
        assert len(heap) < pad + 2 * pad  # ... and it did compact
        live = 0
        while (event := sim.events.pop()) is not None:
            assert event[:2] == twin.pop()[:2]
            live += 1
        assert twin.pop() is None
        assert live == pad + 1


class TestSimulation:
    def test_clock_advances_with_events(self):
        sim = Simulation()
        times = []
        sim.schedule_at(1.5, lambda: times.append(sim.now))
        sim.schedule_at(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_schedule_in_relative(self):
        sim = Simulation()
        seen = []
        sim.schedule_in(1.0, lambda: sim.schedule_in(2.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.0]

    def test_cannot_schedule_into_past(self):
        sim = Simulation()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().schedule_in(-1.0, lambda: None)

    def test_run_until_bound(self):
        sim = Simulation()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run(until=2.5)
        assert fired == [1.0, 2.0]
        # Remaining event still live.
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bound(self):
        sim = Simulation()
        count = [0]

        def reschedule():
            count[0] += 1
            sim.schedule_in(1.0, reschedule)

        sim.schedule_in(1.0, reschedule)
        sim.run(max_events=10)
        assert count[0] == 10

    def test_stop_when_predicate(self):
        sim = Simulation()
        count = [0]

        def reschedule():
            count[0] += 1
            sim.schedule_in(1.0, reschedule)

        sim.schedule_in(1.0, reschedule)
        sim.run(stop_when=lambda: count[0] >= 50, stop_check_interval=1)
        assert count[0] == 50

    def test_run_until_pins_clock_on_empty_queue(self):
        """run(until=T) must land the clock exactly on T even when the
        queue runs dry before the horizon (or was empty to begin with)."""
        sim = Simulation()
        sim.run(until=5.0)
        # Exact landing is the property under test.
        assert sim.now == 5.0  # simlint: disable=float-time-eq

    def test_run_until_pins_clock_after_events_drain(self):
        sim = Simulation()
        sim.schedule_at(1.5, lambda: None)
        sim.run(until=7.0)
        assert sim.now == 7.0  # simlint: disable=float-time-eq
        # The horizon is sticky across calls, not cumulative.
        sim.run(until=7.0)
        assert sim.now == 7.0  # simlint: disable=float-time-eq

    def test_run_until_pins_clock_on_overshoot(self):
        sim = Simulation()
        sim.schedule_at(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0  # simlint: disable=float-time-eq
        assert len(sim.events) == 1  # overshooting event stays live

    def test_periodic_fires_repeatedly(self):
        sim = Simulation()
        ticks = []
        sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        sim.run(max_events=5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_periodic_state_stays_bounded(self):
        """Long-running periodic tasks hold O(1) simulation state: one
        handle per task, one pending event — not one handle per tick."""
        sim = Simulation()
        sim.schedule_periodic(1.0, lambda: None)
        sim.run(max_events=500)
        assert len(sim._periodics) == 1
        assert len(sim.events) == 1  # only the next tick is scheduled

    def test_cancel_periodic_stops_ticks(self):
        sim = Simulation()
        ticks = []
        task = sim.schedule_periodic(1.0, lambda: ticks.append(sim.now))
        sim.run(until=3.5)
        sim.cancel_periodic(task)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert len(sim.events) == 0
        assert sim._periodics == {}

    def test_cancel_periodic_unknown_or_double(self):
        sim = Simulation()
        task = sim.schedule_periodic(1.0, lambda: None)
        sim.cancel_periodic(task)
        with pytest.raises(SimulationError, match="unknown periodic"):
            sim.cancel_periodic(task)
        with pytest.raises(SimulationError, match="unknown periodic"):
            sim.cancel_periodic(999)

    def test_periodic_can_cancel_itself(self):
        sim = Simulation()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                sim.cancel_periodic(task)

        task = sim.schedule_periodic(1.0, tick)
        sim.run(until=20.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert sim._periodics == {}

    def test_periodic_rejects_nonpositive_period(self):
        with pytest.raises(SimulationError):
            Simulation().schedule_periodic(0.0, lambda: None)

    def test_spawn_rng_streams_independent(self):
        sim = Simulation(seed=1)
        a = sim.spawn_rng()
        b = sim.spawn_rng()
        assert a.random() != b.random()

    def test_same_seed_reproducible(self):
        def draws(seed):
            sim = Simulation(seed=seed)
            return sim.spawn_rng().random(5).tolist()

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_events_processed_counter(self):
        sim = Simulation()
        for t in (1.0, 2.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 2
