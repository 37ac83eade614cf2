"""Network fault injection, liveness, and fleet degradation tests.

Three layers, cheapest first:

1. The frame kinds of a :class:`FaultPlan` and :class:`SupervisionPolicy`
   — pure-model validation and addressing.
2. The chaos matrix on the in-memory fake transport — every frame kind
   exercised at the endpoint level (socket-free, sub-second), plus
   heartbeat liveness: a half-open partition must be detected inside
   the ``interval * misses`` window while a merely *slow* worker never
   trips a false positive.
3. Master-level digest parity — a ``backend="remote"`` run over the
   memory transport, with and without benign chaos (``fault_plan=`` on
   the plain transport; the master wraps it), must merge
   digests bit-identical to the clean process backend; destructive
   faults must surface machine-readable causes, honoring the run-level
   supervision policy (abort vs continue-degraded, fleet floor,
   deadline).
4. Pinned frame-chaos runs — ``tests/fixtures/frame_chaos_pins.json``
   holds one seeded master run per frame kind and direction (outcome,
   death causes, digests and the ``transport/net_fault`` records),
   recorded by an earlier commit.
"""

import json
import sys
import time
from pathlib import Path

import pytest

from repro.faults import (
    FaultError,
    FaultPlan,
    FaultSpec,
    RespawnPolicy,
    SupervisionError,
    SupervisionPolicy,
)
from repro.faults.plan import FRAME_KINDS
from repro.parallel.chaos import with_frame_faults
from repro.parallel.master import ParallelSimulation
from repro.parallel.memory import InMemoryTransport
from repro.parallel.pool import WorkerPool
from repro.parallel.protocol import (
    CAUSE_CORRUPT_FRAME,
    CAUSE_DEADLINE_EXCEEDED,
    CAUSE_FLEET_EXHAUSTED,
    CAUSE_LIVENESS_TIMEOUT,
)
from repro.parallel.transport import (
    FramedEndpoint,
    FrameError,
    LivenessError,
    LocalPipeTransport,
    TransportError,
    disconnect_cause,
)
from tests.test_parallel import factory


# -- worker entries (module-level; the memory transport runs them in
# threads, the process backend by pickled reference) --------------------------


def echo_worker(conn):
    """Reply ("echo", message) to every message until told to stop."""
    while True:
        message = conn.recv()
        if message == "stop":
            conn.close()
            return
        conn.send(("echo", message))


def slow_echo_worker(conn, delay):
    """An echo worker that thinks hard before each reply."""
    while True:
        message = conn.recv()
        if message == "stop":
            conn.close()
            return
        time.sleep(delay)
        conn.send(("echo", message))


def eager_echo_worker(conn):
    """An echo worker that speaks first, as a resumed slave's baseline
    does."""
    conn.send("hello")
    echo_worker(conn)


# -- the plan model ------------------------------------------------------------


class TestNetFaultSpec:
    """A FaultSpec of a frame kind."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec(kind="gremlin", slave_id=0, round=1)

    def test_bad_round_rejected(self):
        with pytest.raises(FaultError, match="1-based"):
            FaultSpec(kind="drop", slave_id=0, round=0)

    def test_fixed_directions_enforced(self):
        assert FaultSpec(kind="corrupt").direction == "in"
        assert FaultSpec(kind="agent_crash").direction == "out"
        with pytest.raises(FaultError):
            FaultSpec(kind="corrupt", slave_id=0, round=1, direction="out")
        with pytest.raises(FaultError):
            FaultSpec(kind="agent_crash", slave_id=0, round=1, direction="in")

    def test_roundtrip(self):
        spec = FaultSpec(
            kind="delay", slave_id=2, round=3, generation=1,
            direction="out", delay=0.25,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert spec.phase is None


class TestNetFaultPlan:
    """A FaultPlan holding frame kinds."""

    def test_slot_uniqueness_enforced(self):
        spec = FaultSpec(kind="drop", slave_id=0, round=1)
        twin = FaultSpec(kind="delay", slave_id=0, round=1)
        with pytest.raises(FaultError, match="one frame takes at most"):
            FaultPlan(specs=(spec, twin))
        # A worker kind on the same round holds a different slot.
        FaultPlan(specs=(spec, FaultSpec(kind="kill", slave_id=0, round=1)))

    def test_addressing(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="drop", slave_id=0, round=1),
                FaultSpec(kind="delay", slave_id=0, round=2, generation=1),
                FaultSpec(kind="duplicate", slave_id=1, round=2),
                FaultSpec(kind="kill", slave_id=0, round=1),
            )
        )
        frames = FRAME_KINDS
        assert [s.kind for s in plan.for_slave(0, 0, frames)] == ["drop"]
        assert [s.kind for s in plan.for_slave(0, 1, frames)] == ["delay"]
        assert plan.for_slave(5, 0, frames) == ()
        # The injector's sub-plan and the round schedule hold the worker
        # kinds only.
        assert [s.kind for s in plan.for_slave(0, 0)] == ["kill"]
        assert [s.kind for s in plan.at_round(1)] == ["kill"]
        assert plan.frame_kinds == ("delay", "drop", "duplicate")

    def test_roundtrip_and_inline_load(self):
        import json

        plan = FaultPlan(
            specs=(
                FaultSpec(kind="delay", slave_id=3, round=2, delay=0.1),
                FaultSpec(kind="partition", slave_id=0, round=6,
                          direction="out"),
                FaultSpec(kind="corrupt", slave_id=1, round=1),
            ),
            seed=3,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert FaultPlan.load(json.dumps(plan.to_dict())) == plan

    def test_save_load_path(self, tmp_path):
        plan = FaultPlan.single("partition", slave_id=1, round=2)
        path = plan.save(tmp_path / "net.json")
        assert FaultPlan.load(path).specs == plan.specs


class TestSupervisionPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(min_workers=0),
            dict(deadline=-1.0),
            dict(deadline=0.0),
            dict(on_exhausted="panic"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_fleet_ok(self):
        policy = SupervisionPolicy(min_workers=2)
        assert policy.fleet_ok(2)
        assert not policy.fleet_ok(1)


# -- the chaos matrix on the in-memory wire ------------------------------------


@pytest.fixture
def memory():
    transport = InMemoryTransport()
    transport.start()
    yield transport
    transport.close()


def chaos_spawn(plan, entry=echo_worker, args=(), memory_kwargs=None):
    """A fresh memory transport, started, with ``plan``'s frame faults."""
    transport = with_frame_faults(
        InMemoryTransport(**(memory_kwargs or {})), plan
    )
    transport.start()
    endpoint = transport.spawn(0, 0, entry, args, timeout=5.0)
    return transport, endpoint


class TestChaosMatrix:
    def test_untargeted_worker_passes_clean(self, memory):
        plan = FaultPlan.single("drop", slave_id=7, round=1)
        transport = with_frame_faults(memory, plan)
        endpoint = transport.spawn(0, 0, echo_worker, (), timeout=5.0)
        assert isinstance(endpoint, FramedEndpoint)  # uniform dedup path
        endpoint.send("hi")
        assert endpoint.poll(timeout=5.0)
        assert endpoint.recv() == ("echo", "hi")
        transport.shutdown([endpoint])

    def test_delay_in_holds_then_delivers(self):
        plan = FaultPlan.single(
            "delay", slave_id=0, round=1, direction="in", delay=0.3
        )
        transport, endpoint = chaos_spawn(plan)
        try:
            started = time.monotonic()
            endpoint.send("x")
            assert endpoint.poll(timeout=5.0)
            assert endpoint.recv() == ("echo", "x")
            assert time.monotonic() - started >= 0.3
        finally:
            transport.shutdown([endpoint])

    def test_delay_out_does_not_block_sender(self):
        plan = FaultPlan.single(
            "delay", slave_id=0, round=1, direction="out", delay=0.3
        )
        transport, endpoint = chaos_spawn(plan)
        try:
            started = time.monotonic()
            endpoint.send("x")
            assert time.monotonic() - started < 0.25  # send returned early
            assert endpoint.poll(timeout=5.0)
            assert endpoint.recv() == ("echo", "x")
            assert time.monotonic() - started >= 0.3
        finally:
            transport.shutdown([endpoint])

    def test_drop_out_loses_exactly_that_frame(self):
        plan = FaultPlan.single(
            "drop", slave_id=0, round=1, direction="out"
        )
        transport, endpoint = chaos_spawn(plan)
        try:
            endpoint.send("lost")
            assert not endpoint.poll(timeout=0.3)  # the worker never saw it
            endpoint.send("kept")
            assert endpoint.poll(timeout=5.0)
            assert endpoint.recv() == ("echo", "kept")
        finally:
            transport.shutdown([endpoint])

    def test_duplicate_in_is_deduplicated(self):
        plan = FaultPlan.single(
            "duplicate", slave_id=0, round=1, direction="in"
        )
        transport, endpoint = chaos_spawn(plan)
        try:
            endpoint.send("once")
            assert endpoint.poll(timeout=5.0)
            assert endpoint.recv() == ("echo", "once")
            # The duplicated report must not make the endpoint look
            # ready again — that poll-then-block is the deadlock a
            # dedup ahead of the inbox prevents.
            assert not endpoint.poll(timeout=0.3)
        finally:
            transport.shutdown([endpoint])

    def test_duplicate_out_runs_command_once(self):
        plan = FaultPlan.single(
            "duplicate", slave_id=0, round=1, direction="out"
        )
        transport, endpoint = chaos_spawn(plan)
        try:
            endpoint.send("cmd")
            assert endpoint.poll(timeout=5.0)
            assert endpoint.recv() == ("echo", "cmd")
            assert not endpoint.poll(timeout=0.3)  # bridge dropped the copy
        finally:
            transport.shutdown([endpoint])

    def test_corrupt_in_raises_frame_error_with_cause(self):
        plan = FaultPlan.single("corrupt", slave_id=0, round=1)
        transport, endpoint = chaos_spawn(plan)
        endpoint.send("x")
        assert endpoint.poll(timeout=5.0)
        with pytest.raises(FrameError) as info:
            endpoint.recv()
        assert info.value.worker_id == 0
        assert disconnect_cause(info.value, "eof") == CAUSE_CORRUPT_FRAME
        transport.close()

    def test_agent_crash_out_breaks_pipe_immediately(self):
        plan = FaultPlan.single(
            "agent_crash", slave_id=0, round=2, direction="out"
        )
        transport, endpoint = chaos_spawn(plan)
        endpoint.send("first")
        assert endpoint.poll(timeout=5.0)
        assert endpoint.recv() == ("echo", "first")
        with pytest.raises(BrokenPipeError):
            endpoint.send("second")
        with pytest.raises(EOFError):
            endpoint.recv()
        transport.close()

    def test_partition_in_without_heartbeats_is_silent(self):
        plan = FaultPlan.single(
            "partition", slave_id=0, round=1, direction="in"
        )
        transport, endpoint = chaos_spawn(plan)
        endpoint.send("x")
        # The triggering reply and everything after it is blackholed;
        # with no liveness monitoring this is exactly the silent-hang
        # failure mode the heartbeats exist to kill.
        assert not endpoint.poll(timeout=0.5)
        transport.close()

    def test_fault_on_the_first_frame_a_worker_sends_always_fires(self):
        # The worker sends before it receives anything: the faults must
        # be armed on its channel before its thread starts, or the
        # first frame can slip past them.
        plan = FaultPlan.single("drop", slave_id=0, round=1, direction="in")
        for _ in range(20):
            transport, endpoint = chaos_spawn(plan, entry=eager_echo_worker)
            try:
                endpoint.send("x")
                assert endpoint.poll(timeout=5.0)
                assert endpoint.recv() == ("echo", "x")  # "hello" dropped
            finally:
                transport.shutdown([endpoint])
                transport.close()

    def test_faulted_channels_deliver_each_reply_once_under_contention(self):
        # More workers than cores, each with duplicates and delays both
        # ways firing on worker and timer threads, and a tiny switch
        # interval: a lost update in the channels' shared state would
        # lose a reply or let a duplicate through.
        workers, messages = 8, 10
        plan = FaultPlan(specs=tuple(
            FaultSpec(kind=kind, slave_id=worker, round=round_number,
                      direction=direction, **extra)
            for worker in range(workers)
            for kind, round_number, direction, extra in (
                ("duplicate", 1, "in", {}),
                ("delay", 2, "in", {"delay": 0.02}),
                ("duplicate", 3, "out", {}),
                ("delay", 4, "out", {"delay": 0.02}),
            )
        ))
        transport = with_frame_faults(InMemoryTransport(), plan)
        transport.start()
        endpoints = [
            transport.spawn(worker, 0, echo_worker, (), timeout=5.0)
            for worker in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for message in range(messages):
                for endpoint in endpoints:
                    endpoint.send(message)
                owed = list(endpoints)
                while owed:
                    ready = transport.wait(owed, timeout=5.0)
                    assert ready, f"message {message}: replies lost"
                    for endpoint in ready:
                        assert endpoint.recv() == ("echo", message)
                        owed.remove(endpoint)
            assert transport.wait(endpoints, timeout=0.1) == []
        finally:
            sys.setswitchinterval(interval)
            transport.shutdown(endpoints)
            transport.close()

    def test_plan_on_frameless_transport_is_refused(self):
        plan = FaultPlan.single("drop", slave_id=0, round=1)
        with pytest.raises(TransportError, match="'local' has no frame"):
            WorkerPool(echo_worker, transport=LocalPipeTransport("fork"),
                       fault_plan=plan)
        with pytest.raises(TransportError, match="'inline' has no frame"):
            ParallelSimulation(factory, fault_plan=plan, **MASTER_KW).run()


class TestLiveness:
    def test_partition_detected_within_window(self):
        interval, misses = 0.1, 3
        plan = FaultPlan.single(
            "partition", slave_id=0, round=1, direction="in"
        )
        transport, endpoint = chaos_spawn(
            plan,
            memory_kwargs=dict(
                heartbeat_interval=interval, heartbeat_misses=misses
            ),
        )
        started = time.monotonic()
        endpoint.send("x")
        with pytest.raises(LivenessError) as info:
            while True:
                assert endpoint.poll(timeout=10.0)
                endpoint.recv()
        elapsed = time.monotonic() - started
        # The acceptance bound: detection in < interval * misses (plus
        # one monitor tick of slack), not the 600 s round timeout.
        assert elapsed < interval * (misses + 2)
        assert (
            disconnect_cause(info.value, "eof") == CAUSE_LIVENESS_TIMEOUT
        )
        transport.close()

    def test_slow_worker_is_not_a_false_positive(self):
        interval, misses = 0.1, 3
        transport = InMemoryTransport(
            heartbeat_interval=interval, heartbeat_misses=misses
        )
        transport.start()
        try:
            # Busy for 6 full liveness windows; the bridge acks anyway.
            endpoint = transport.spawn(
                0, 0, slow_echo_worker, (interval * misses * 6,),
                timeout=5.0,
            )
            endpoint.send("x")
            assert endpoint.poll(timeout=10.0)
            assert endpoint.recv() == ("echo", "x")
            transport.shutdown([endpoint])
        finally:
            transport.close()


# -- master-level parity and degradation ---------------------------------------


MASTER_KW = dict(
    n_slaves=2, master_seed=7, chunk_size=1500, round_timeout=60.0
)


def run_memory_master(transport=None, **kwargs):
    merged = dict(MASTER_KW)
    merged.update(kwargs)
    transport = transport or InMemoryTransport()
    simulation = ParallelSimulation(
        factory, backend="remote", transport=transport,
        join_timeout=15.0, **merged,
    )
    try:
        return simulation.run()
    finally:
        transport.close()


class TestMasterChaosParity:
    @pytest.fixture(scope="class")
    def clean_process(self):
        return ParallelSimulation(
            factory, backend="process", **MASTER_KW
        ).run()

    def test_memory_backend_matches_process(self, clean_process):
        result = run_memory_master()
        assert result.converged and not result.degraded
        assert result.merged_digests == clean_process.merged_digests
        assert result.total_accepted == clean_process.total_accepted

    def test_benign_chaos_is_digest_invisible(self, clean_process):
        # Duplicates and delays both ways on both workers: the run must
        # finish with *bit-identical* digests — dedup ate every copy,
        # delays reordered nothing the protocol cares about.
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="duplicate", slave_id=0, round=1,
                          direction="in"),
                FaultSpec(kind="duplicate", slave_id=0, round=1,
                          direction="out"),
                FaultSpec(kind="delay", slave_id=1, round=1,
                          direction="in", delay=0.2),
                FaultSpec(kind="delay", slave_id=1, round=1,
                          direction="out", delay=0.2),
            )
        )
        result = run_memory_master(fault_plan=plan)
        assert result.converged and not result.degraded
        assert result.merged_digests == clean_process.merged_digests

    def test_corrupt_frame_kills_attributed_worker(self):
        plan = FaultPlan.single("corrupt", slave_id=0, round=1)
        result = run_memory_master(fault_plan=plan)
        assert result.converged
        assert result.degraded
        assert result.dead_slaves == [0]
        assert result.failure_causes[0] == CAUSE_CORRUPT_FRAME

    def test_fleet_floor_aborts_with_typed_cause(self):
        plan = FaultPlan.single("corrupt", slave_id=0, round=1)
        with pytest.raises(SupervisionError) as info:
            run_memory_master(
                fault_plan=plan,
                supervision=SupervisionPolicy(min_workers=2),
            )
        assert info.value.cause == CAUSE_FLEET_EXHAUSTED

    def test_on_exhausted_continue_finishes_degraded(self):
        plan = FaultPlan.single("corrupt", slave_id=0, round=1)
        result = run_memory_master(
            fault_plan=plan,
            supervision=SupervisionPolicy(
                min_workers=2, on_exhausted="continue"
            ),
        )
        assert result.converged
        assert result.degraded
        assert result.failure_causes[0] == CAUSE_CORRUPT_FRAME

    def test_deadline_abort_raises_typed_cause(self):
        with pytest.raises(SupervisionError) as info:
            run_memory_master(
                supervision=SupervisionPolicy(deadline=1e-6)
            )
        assert info.value.cause == CAUSE_DEADLINE_EXCEEDED

    def test_deadline_continue_returns_degraded_partial(self):
        result = run_memory_master(
            supervision=SupervisionPolicy(
                deadline=1e-6, on_exhausted="continue"
            )
        )
        assert result.degraded
        assert not result.converged

    def test_liveness_attributes_partition_death(self, tmp_path):
        import json

        from repro.observability import Tracer

        plan = FaultPlan.single(
            "partition", slave_id=1, round=1, direction="in"
        )
        transport = InMemoryTransport(
            heartbeat_interval=0.2, heartbeat_misses=3
        )
        trace_path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(trace_path)
        simulation = ParallelSimulation(
            factory, backend="remote", transport=transport,
            join_timeout=15.0, fault_plan=plan,
            respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
            **MASTER_KW,
        )
        simulation.attach_tracer(tracer)
        started = time.monotonic()
        try:
            result = simulation.run()
        finally:
            tracer.close()
            transport.close()
        assert result.converged
        assert not result.degraded  # respawn healed the partitioned slave
        assert result.restarts >= 1
        assert time.monotonic() - started < 30.0  # not the round timeout
        deaths = [
            record["fields"]
            for record in map(
                json.loads, trace_path.read_text().splitlines()
            )
            if record["name"] == "dead"
        ]
        assert any(
            death["cause"] == CAUSE_LIVENESS_TIMEOUT and death["slave"] == 1
            for death in deaths
        )


# -- pinned frame-chaos runs ---------------------------------------------------


#: One row per frame kind x direction the plan validator accepts, each a
#: ``MASTER_KW`` run over the memory transport with respawn on.  A
#: dropped frame is detected by the round deadline, a partition by
#: heartbeat liveness; the other kinds need neither.
PINNED_FRAME_FAULTS = (
    ("delay", "in"), ("delay", "out"),
    ("drop", "in"), ("drop", "out"),
    ("duplicate", "in"), ("duplicate", "out"),
    ("corrupt", "in"),
    ("partition", "in"), ("partition", "out"),
    ("agent_crash", "out"),
)
FRAME_PINS_FILE = (
    Path(__file__).parent / "fixtures" / "frame_chaos_pins.json"
)


def pinned_frame_outcome(kind, direction):
    """Everything a seeded frame-chaos run must reproduce, as plain data."""
    from repro.observability import Tracer
    from repro.observability.schema import strip_host_fields

    extra = {"delay": 0.2} if kind == "delay" else {}
    plan = FaultPlan.single(
        kind, slave_id=1, round=1, direction=direction, **extra
    )
    heartbeats = (
        dict(heartbeat_interval=0.2, heartbeat_misses=3)
        if kind == "partition" else {}
    )
    round_timeout = 2.0 if kind == "drop" else MASTER_KW["round_timeout"]
    tracer = Tracer.to_memory()
    transport = InMemoryTransport(**heartbeats)
    simulation = ParallelSimulation(
        factory, backend="remote", transport=transport,
        join_timeout=15.0, fault_plan=plan,
        respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
        **{**MASTER_KW, "round_timeout": round_timeout},
    )
    simulation.attach_tracer(tracer)
    try:
        result = simulation.run()
    finally:
        transport.close()
    records = tracer.lines()
    outcome = {
        "kind": kind,
        "direction": direction,
        "converged": result.converged,
        "degraded": result.degraded,
        "rounds": result.rounds,
        "restarts": result.restarts,
        "dead_slaves": result.dead_slaves,
        "failure_causes": result.failure_causes,
        "death_causes": sorted(
            [record["fields"]["slave"], record["fields"]["generation"],
             record["fields"]["cause"]]
            for record in records if record["name"] == "dead"
        ),
        "merged_digests": result.merged_digests,
        "total_accepted": result.total_accepted,
        "net_faults": [
            strip_host_fields(record)
            for record in records if record["name"] == "net_fault"
        ],
    }
    # Through JSON so int keys and tuples take the fixture's form.
    return json.loads(json.dumps(outcome))


class TestPinnedFrameChaos:
    """Seeded frame-chaos runs recorded by an earlier commit; re-record
    with ``PYTHONPATH=src python -m tests.test_netfaults``, only for a
    change that is meant to move a chaos run's outcome."""

    @pytest.mark.parametrize(
        "pin", json.loads(FRAME_PINS_FILE.read_text()),
        ids=lambda pin: f"{pin['kind']}-{pin['direction']}",
    )
    def test_run_equals_recorded_values(self, pin):
        assert pinned_frame_outcome(pin["kind"], pin["direction"]) == pin


if __name__ == "__main__":  # re-record the fixture (see TestPinnedFrameChaos)
    FRAME_PINS_FILE.write_text(json.dumps(
        [pinned_frame_outcome(kind, direction)
         for kind, direction in PINNED_FRAME_FAULTS],
        indent=1,
    ) + "\n")
