"""Transport conformance suite: local pipes, the loopback remote fleet
and the in-memory transport.

Every test in :class:`TestTransportConformance` runs against
:class:`~repro.parallel.transport.LocalPipeTransport`, a
:class:`~repro.parallel.transport.RemoteTransport` with an in-process
:class:`~repro.parallel.agent.HostAgent` dialing it over loopback TCP,
and :class:`~repro.parallel.memory.InMemoryTransport` (the same framed
endpoint as remote over worker threads, so its workers must return,
never ``os._exit``) — the endpoint contract (send/recv/poll exception families, wait
semantics, endpoint-per-incarnation identity) must be indistinguishable
to the scheduling loops upstream.  Remote-only classes cover the wire
format, registration (keys, capacity), agent churn, and the
master-level determinism contract: ``backend="remote"`` merged digests
must be bit-identical to ``backend="process"``, including a mid-run
worker kill recovered by respawn.
"""

import asyncio
import os
import time

import pytest

from repro.faults import FaultPlan, FaultSpec, RespawnPolicy
from repro.parallel.agent import HostAgent
from repro.parallel.master import ParallelSimulation
from repro.parallel.memory import InMemoryTransport
from repro.parallel.transport import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    LocalPipeTransport,
    RemoteTransport,
    TransportCapacityError,
    TransportError,
    encode_frame,
    parse_address,
    read_frame,
)
from tests.test_parallel import factory


# -- worker entry points (module-level: picklable by reference) ---------------


def echo_worker(conn):
    """Reply ("echo", message) to every message until told to stop."""
    while True:
        message = conn.recv()
        if message == "stop":
            conn.close()
            return
        conn.send(("echo", message))


def quitter_worker(conn):
    """Exit without replying on the first message (a crashing worker)."""
    conn.recv()
    conn.close()


def exiting_worker(conn):
    """Echo until told to die, then exit abruptly (no close, no reply)."""
    while True:
        message = conn.recv()
        if message == "die":
            os._exit(1)
        conn.send(("echo", message))


# -- rigs ---------------------------------------------------------------------


@pytest.fixture(params=["local", "remote", "memory"])
def transport(request):
    """One started transport per param; remote gets a 2-slot loopback agent."""
    if request.param != "remote":
        rig = (
            LocalPipeTransport("fork")
            if request.param == "local"
            else InMemoryTransport()
        )
        rig.start()
        yield rig
        rig.close()
        return
    rig = RemoteTransport()
    rig.start()
    agent = HostAgent(rig.address, slots=2)
    agent.start()
    assert rig.wait_for_capacity(timeout=10.0)
    yield rig
    agent.stop(timeout=10.0)
    rig.close()


def spawn_echo(transport, worker_id, generation=0):
    return transport.spawn(
        worker_id, generation, echo_worker, (), timeout=10.0
    )


class TestTransportConformance:
    def test_spawn_roundtrip_and_identity(self, transport):
        endpoint = spawn_echo(transport, 3)
        try:
            assert endpoint.worker_id == 3
            assert endpoint.generation == 0
            endpoint.send({"x": 1})
            assert endpoint.poll(timeout=10.0)
            assert endpoint.recv() == ("echo", {"x": 1})
            description = endpoint.describe()
            assert description["transport"] == transport.kind
            assert description["worker"] == 3
        finally:
            transport.shutdown([endpoint])

    def test_wait_times_out_empty_and_reports_ready(self, transport):
        first = spawn_echo(transport, 0)
        second = spawn_echo(transport, 1)
        try:
            assert transport.wait([first, second], timeout=0.2) == []
            second.send("ping")
            deadline = time.monotonic() + 10.0
            ready = []
            while not ready and time.monotonic() < deadline:
                ready = transport.wait([first, second], timeout=1.0)
            assert ready == [second]
            assert second.recv() == ("echo", "ping")
        finally:
            transport.shutdown([first, second])

    def test_worker_death_surfaces_as_eof(self, transport):
        endpoint = transport.spawn(0, 0, quitter_worker, (), timeout=10.0)
        endpoint.send("go")
        assert endpoint.poll(timeout=10.0)
        with pytest.raises(EOFError):
            while True:
                endpoint.recv()
        endpoint.close()
        transport.reap(endpoint)

    def test_respawn_gets_a_fresh_endpoint(self, transport):
        doomed = transport.spawn(0, 0, quitter_worker, (), timeout=10.0)
        doomed.send("go")
        assert doomed.poll(timeout=10.0)
        with pytest.raises(EOFError):
            doomed.recv()
        doomed.close()
        transport.reap(doomed)
        if transport.elastic:
            # The agent re-dials after the death; that registration is
            # the capacity the respawn claims.
            assert transport.wait_for_capacity(timeout=10.0)
        replacement = spawn_echo(transport, 0, generation=1)
        try:
            assert replacement is not doomed
            assert replacement.generation == 1
            replacement.send("hello")
            assert replacement.poll(timeout=10.0)
            assert replacement.recv() == ("echo", "hello")
        finally:
            transport.shutdown([replacement])


# -- wire format (remote only) ------------------------------------------------


def decode_frame(data: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFraming:
    def test_roundtrip(self):
        message = ("configure", "p0", {"seed": 17, "params": {"rho": 0.3}})
        assert decode_frame(encode_frame(message)) == message

    def test_clean_eof(self):
        with pytest.raises(EOFError):
            decode_frame(b"")

    def test_truncated_header(self):
        with pytest.raises(TransportError, match="truncated frame header"):
            decode_frame(b"\x00\x00")

    def test_truncated_payload(self):
        with pytest.raises(TransportError, match="truncated frame payload"):
            decode_frame(FRAME_HEADER.pack(64) + b"short")

    def test_oversize_prefix_rejected_before_allocation(self):
        with pytest.raises(TransportError, match="exceeds"):
            decode_frame(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))


class TestParseAddress:
    def test_valid(self):
        assert parse_address("127.0.0.1:9751") == ("127.0.0.1", 9751)

    @pytest.mark.parametrize(
        "bad", ["nohost", "host:", ":9751", "host:ninety"]
    )
    def test_invalid(self, bad):
        with pytest.raises(TransportError):
            parse_address(bad)


# -- registration and agent churn (remote only) -------------------------------


class TestRemoteRegistration:
    def test_spawn_with_no_agents_raises_capacity_error(self):
        transport = RemoteTransport()
        transport.start()
        try:
            with pytest.raises(TransportCapacityError, match="repro agent"):
                transport.spawn(0, 0, echo_worker, (), timeout=0.1)
        finally:
            transport.close()

    def test_bad_key_is_rejected(self):
        transport = RemoteTransport(key="sesame")
        transport.start()
        imposter = HostAgent(transport.address, slots=1, key="wrong")
        imposter.start()
        try:
            # The reject frame stops the imposter agent; the lobby must
            # never gain capacity from it.
            assert imposter.join(timeout=10.0)
            assert imposter.rejected == "bad key"
            assert transport.capacity() == 0
            with pytest.raises(TransportCapacityError):
                transport.spawn(0, 0, echo_worker, (), timeout=0.2)
        finally:
            imposter.stop(timeout=10.0)
            transport.close()

    def test_keyed_agent_registers_and_serves(self):
        transport = RemoteTransport(key="sesame")
        transport.start()
        agent = HostAgent(transport.address, slots=1, key="sesame")
        agent.start()
        try:
            assert transport.wait_for_capacity(timeout=10.0)
            endpoint = spawn_echo(transport, 0)
            endpoint.send(1)
            assert endpoint.poll(timeout=10.0)
            assert endpoint.recv() == ("echo", 1)
            transport.shutdown([endpoint])
        finally:
            agent.stop(timeout=10.0)
            transport.close()

    def test_agent_leaving_mid_run_surfaces_eof_then_rejoin_restores(self):
        transport = RemoteTransport()
        transport.start()
        first = HostAgent(transport.address, slots=1)
        first.start()
        try:
            assert transport.wait_for_capacity(timeout=10.0)
            endpoint = spawn_echo(transport, 0)
            first.stop(timeout=10.0)
            assert transport.wait([endpoint], timeout=10.0) == [endpoint]
            with pytest.raises(EOFError):
                while True:
                    endpoint.recv()
            endpoint.close()
            transport.reap(endpoint)
            assert transport.capacity() == 0
            second = HostAgent(transport.address, slots=1)
            second.start()
            try:
                assert transport.wait_for_capacity(timeout=10.0)
                replacement = spawn_echo(transport, 0, generation=1)
                replacement.send("back")
                assert replacement.poll(timeout=10.0)
                assert replacement.recv() == ("echo", "back")
                transport.shutdown([replacement])
            finally:
                second.stop(timeout=10.0)
        finally:
            first.stop(timeout=10.0)
            transport.close()


# -- fork fd hygiene (remote only) --------------------------------------------


class TestForkFdHygiene:
    """A dead remote worker must be detected while siblings still run.

    A fork()ed worker inherits duplicates of every open socket fd in
    its parent — including *other* slots' agent connections.  Without
    the scrub in ``_scrubbed_entry``, a sibling's duplicate keeps the
    dead worker's slot connection established after the agent closes
    it, so the master never sees the FIN and the death goes undetected
    until the sibling also exits (respawns stall, the run hangs on the
    job deadline).
    """

    def test_sibling_worker_does_not_mask_a_death(self):
        transport = RemoteTransport()
        transport.start()
        agent = HostAgent(transport.address, slots=2)
        agent.start()
        try:
            assert transport.wait_for_capacity(timeout=10.0)
            doomed = transport.spawn(
                0, 0, exiting_worker, (), timeout=10.0
            )
            assert transport.wait_for_capacity(timeout=10.0)
            # Forked after slot 0's connection exists: this sibling is
            # the process that would inherit slot 0's socket fd.
            sibling = spawn_echo(transport, 1)
            try:
                doomed.send("die")
                start = time.monotonic()
                ready = transport.wait([doomed], timeout=10.0)
                elapsed = time.monotonic() - start
                assert ready == [doomed], (
                    f"death not surfaced in {elapsed:.1f}s"
                )
                assert elapsed < 5.0
                with pytest.raises(EOFError):
                    while True:
                        doomed.recv()
                doomed.close()
                transport.reap(doomed)
                # The sibling is unaffected by the scrub or the death.
                sibling.send("still here")
                assert sibling.poll(timeout=10.0)
                assert sibling.recv() == ("echo", "still here")
            finally:
                transport.shutdown([sibling])
        finally:
            agent.stop(timeout=10.0)
            transport.close()


# -- master-level determinism contract (remote vs process) --------------------


@pytest.fixture
def remote_fleet():
    """A started RemoteTransport with a 2-slot loopback agent behind it."""
    transport = RemoteTransport()
    transport.start()
    agent = HostAgent(transport.address, slots=2)
    agent.start()
    assert transport.wait_for_capacity(timeout=10.0)
    yield transport
    agent.stop(timeout=10.0)
    transport.close()


MASTER_KW = dict(
    n_slaves=2, master_seed=7, chunk_size=1500, round_timeout=60.0
)


class TestRemoteMasterDeterminism:
    def test_remote_digests_match_process_backend(self, remote_fleet):
        local = ParallelSimulation(
            factory, backend="process", **MASTER_KW
        ).run()
        remote = ParallelSimulation(
            factory,
            backend="remote",
            transport=remote_fleet,
            join_timeout=15.0,
            **MASTER_KW,
        ).run()
        assert local.converged and remote.converged
        assert local.merged_digests == remote.merged_digests
        assert local.total_accepted == remote.total_accepted

    def test_mid_run_kill_with_respawn_matches_process_backend(
        self, remote_fleet
    ):
        plan = FaultPlan.single(
            "kill", slave_id=1, round=1, phase="pre_report"
        )
        policy = RespawnPolicy(backoff_base=0.0, jitter=0.0)
        runs = {}
        for backend, transport in (
            ("process", None),
            ("remote", remote_fleet),
        ):
            runs[backend] = ParallelSimulation(
                factory,
                backend=backend,
                transport=transport,
                join_timeout=15.0,
                fault_plan=plan,
                respawn=policy,
                **MASTER_KW,
            ).run()
            assert runs[backend].converged
            assert not runs[backend].degraded
            assert runs[backend].restarts == 1
        assert (
            runs["process"].merged_digests == runs["remote"].merged_digests
        )


# -- frame corruption shapes (the typed FrameError contract) ------------------


class TestFrameErrorShapes:
    """Every corruption shape surfaces as FrameError, never a raw
    pickle/struct exception — the recv paths in master/pool route the
    type to the 'corrupt frame' death cause."""

    def test_truncated_header_is_frame_error(self):
        from repro.parallel.transport import FrameError

        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00")

    def test_oversize_prefix_is_frame_error(self):
        from repro.parallel.transport import FrameError

        with pytest.raises(FrameError):
            decode_frame(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))

    def test_undecodable_pickle_is_frame_error(self):
        from repro.parallel.transport import FrameError, decode_payload

        garbage = b"\x80\x05not a pickle at all"
        with pytest.raises(FrameError) as info:
            decode_payload(garbage, worker_id=3)
        assert info.value.worker_id == 3
        with pytest.raises(FrameError):
            decode_frame(FRAME_HEADER.pack(len(garbage)) + garbage)

    def test_frame_error_maps_to_corrupt_cause(self):
        from repro.parallel.protocol import CAUSE_CORRUPT_FRAME
        from repro.parallel.transport import FrameError, disconnect_cause

        assert (
            disconnect_cause(FrameError("boom"), "eof")
            == CAUSE_CORRUPT_FRAME
        )


# -- chaos and liveness on the real loopback wire -----------------------------


class TestRemoteChaosDeterminism:
    """The determinism matrix's chaos-remote cells: benign injected
    faults and heartbeat traffic must both be digest-invisible."""

    def test_benign_chaos_remote_matches_process(self, remote_fleet):
        plan = FaultPlan(
            specs=(
                FaultSpec(kind="duplicate", slave_id=0, round=1,
                          direction="in"),
                FaultSpec(kind="duplicate", slave_id=1, round=1,
                          direction="out"),
                FaultSpec(kind="delay", slave_id=1, round=1,
                          direction="in", delay=0.2),
            )
        )
        local = ParallelSimulation(
            factory, backend="process", **MASTER_KW
        ).run()
        remote = ParallelSimulation(
            factory,
            backend="remote",
            transport=remote_fleet,
            fault_plan=plan,
            join_timeout=15.0,
            **MASTER_KW,
        ).run()
        assert local.converged and remote.converged
        assert local.merged_digests == remote.merged_digests
        assert local.total_accepted == remote.total_accepted

    def test_heartbeats_are_digest_invisible(self):
        transport = RemoteTransport(
            heartbeat_interval=0.2, heartbeat_misses=3
        )
        transport.start()
        agent = HostAgent(transport.address, slots=2)
        agent.start()
        try:
            assert transport.wait_for_capacity(timeout=10.0)
            local = ParallelSimulation(
                factory, backend="process", **MASTER_KW
            ).run()
            remote = ParallelSimulation(
                factory,
                backend="remote",
                transport=transport,
                join_timeout=15.0,
                **MASTER_KW,
            ).run()
            assert local.converged and remote.converged
            assert local.merged_digests == remote.merged_digests
        finally:
            agent.stop(timeout=10.0)
            transport.close()


class TestAgentRedialBackoff:
    """The agent's re-dial loop: exponential, seeded-jitter, bounded."""

    @staticmethod
    def _dead_port():
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_max_redial_gives_up_and_history_is_seeded(self):
        address = ("127.0.0.1", self._dead_port())

        def run_agent(seed):
            agent = HostAgent(
                address, slots=1, reconnect_delay=0.01,
                reconnect_cap=0.05, backoff_seed=seed, max_redial=3,
            )
            agent.start()
            assert agent.join(timeout=20.0), "agent never gave up"
            agent.stop(timeout=10.0)
            return list(agent.backoff_history)

        first = run_agent(5)
        twin = run_agent(5)
        other = run_agent(6)
        # Two failures sleep through the backoff (the third exhausts
        # the budget), each recorded as (slot, failures, delay).
        assert len(first) == 2
        assert [entry[1] for entry in first] == [1, 2]
        assert all(delay <= 0.05 * 1.1 for _, _, delay in first)
        assert first == twin            # same seed, same schedule
        assert first != other           # different seed spreads probes
