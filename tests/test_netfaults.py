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
"""

import time

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
from repro.parallel.chaos import ChaosEndpoint, ChaosTransport
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
            dict(degrade_below=0),
            dict(deadline=0.0),
            dict(on_exhausted="panic"),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_fleet_ok_and_degraded(self):
        policy = SupervisionPolicy(min_workers=2, degrade_below=3)
        assert policy.fleet_ok(2)
        assert not policy.fleet_ok(1)
        assert policy.is_degraded(survivors=2, unreplaced_deaths=0)
        assert not policy.is_degraded(survivors=3, unreplaced_deaths=1)
        strict = SupervisionPolicy()
        assert strict.is_degraded(survivors=4, unreplaced_deaths=1)
        assert not strict.is_degraded(survivors=4, unreplaced_deaths=0)


# -- the chaos matrix on the in-memory wire ------------------------------------


@pytest.fixture
def memory():
    transport = InMemoryTransport()
    transport.start()
    yield transport
    transport.close()


def chaos_spawn(plan, entry=echo_worker, args=(), memory_kwargs=None):
    """A started ChaosTransport over a fresh memory transport."""
    transport = ChaosTransport(
        InMemoryTransport(**(memory_kwargs or {})), plan
    )
    transport.start()
    endpoint = transport.spawn(0, 0, entry, args, timeout=5.0)
    return transport, endpoint


class TestChaosMatrix:
    def test_untargeted_worker_passes_clean(self, memory):
        plan = FaultPlan.single("drop", slave_id=7, round=1)
        transport = ChaosTransport(memory, plan)
        endpoint = transport.spawn(0, 0, echo_worker, (), timeout=5.0)
        assert isinstance(endpoint, ChaosEndpoint)  # uniform dedup path
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
            # ready again — that poll-then-block is the deadlock the
            # dedup-aware ready queue prevents.
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

    def test_degrade_below_relaxes_the_flag(self):
        # One unreplaced death out of two, but the policy says one
        # survivor is still full strength.
        plan = FaultPlan.single("corrupt", slave_id=0, round=1)
        result = run_memory_master(
            fault_plan=plan,
            supervision=SupervisionPolicy(
                min_workers=1, degrade_below=1, on_exhausted="continue"
            ),
        )
        assert result.converged
        assert not result.degraded

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
