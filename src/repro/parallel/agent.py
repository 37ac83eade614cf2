"""Host agent for the remote transport: run workers for a master.

One agent process per machine.  It dials the master's
:class:`~repro.parallel.transport.RemoteTransport` and registers
``slots`` worker slots; each slot independently:

1. connects and sends ``("hello", {...})``;
2. waits for a ``("spawn", worker_id, generation, entry, args)`` frame;
3. forks a local worker process running ``entry(pipe_conn, *args)``
   and bridges the pipe to the socket in both directions (the worker
   never knows it is remote);
4. when the worker exits — job done, ``stop`` received, killed by
   chaos injection — tears the bridge down and re-dials, offering the
   master fresh capacity for a respawn or an elastic join.

The spawn frame carries the worker entry point pickled *by reference*
(module + qualname), so the ``repro`` package must be importable on
the agent host at a compatible version.  That, plus pickle on the
wire, is the trusted-cluster assumption documented in
``docs/distributed.md`` — the same assumption ``multiprocessing``
itself makes.

Run one from a shell::

    repro agent 127.0.0.1:9751 --slots 8

or in-process (tests, loopback CI) via :class:`HostAgent`.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from typing import Optional

from repro.faults.recovery import backoff_delay, derive_seed
from repro.parallel.transport import (
    HEARTBEAT_ACK_TAG,
    FrameSequencer,
    _writer_fd,
    close_event_loop,
    encode_frame,
    fork_safe_process,
    is_heartbeat,
    parse_address,
    read_frame,
    reap_process,
    register_fork_unsafe_fd,
    unregister_fork_unsafe_fd,
)


def _wake_loop() -> None:
    """No-op scheduled on the agent loop so a stop request wakes it."""


class HostAgent:
    """Own ``slots`` worker slots against one master, until stopped.

    Parameters
    ----------
    address:
        ``(host, port)`` of the master's remote transport.
    slots:
        Worker slots (= max concurrent workers) this agent offers.
    key:
        Shared fleet key echoed in the hello (must match the master's).
    context:
        ``multiprocessing`` start method for worker children.
    reconnect_delay:
        Base delay of the re-dial backoff.  Consecutive failed dials
        back off exponentially from this base (capped at
        ``reconnect_cap``, stretched by up to ``reconnect_jitter`` of
        seeded noise), so a dead or partitioned master is probed a few
        times a minute instead of hammered at 5 Hz forever.  A
        successfully hosted worker resets the backoff.
    reconnect_cap / reconnect_jitter / backoff_seed:
        Backoff tuning: the delay ceiling, the fractional jitter, and
        the seed the jitter derives from (per slot and attempt, so two
        agents with different seeds never dial in lockstep while one
        agent replays identical delays run-to-run).
    max_redial:
        Budget of *consecutive* failed dial attempts per slot; when
        exhausted the slot gives up (the agent exits once every slot
        has).  ``None`` (default) retries forever.
    idle_exit:
        When set, a slot that cannot reach the master (or sits unbound)
        for this many seconds gives up; the agent stops once every slot
        has given up.  Keeps CI smoke jobs from leaking processes.
    """

    def __init__(
        self,
        address,
        slots: int = 1,
        key: Optional[str] = None,
        context: str = "fork",
        reconnect_delay: float = 0.2,
        reconnect_cap: float = 30.0,
        reconnect_jitter: float = 0.1,
        backoff_seed: int = 0,
        max_redial: Optional[int] = None,
        idle_exit: Optional[float] = None,
    ):
        from multiprocessing import get_context

        self.address = tuple(address)
        self.slots = int(slots)
        self.key = key
        self.reconnect_delay = float(reconnect_delay)
        self.reconnect_cap = float(reconnect_cap)
        self.reconnect_jitter = float(reconnect_jitter)
        self.backoff_seed = int(backoff_seed)
        self.max_redial = max_redial
        self.idle_exit = idle_exit
        self.name = f"{socket.gethostname()}:{os.getpid()}"
        self._context = get_context(context)
        self._thread: Optional[threading.Thread] = None
        self._loop = None
        self._stop_event: Optional[threading.Event] = None
        self._done = threading.Event()
        self.workers_hosted = 0
        #: ``(slot, consecutive_failures, delay)`` per backoff taken —
        #: the regression surface for re-dial-storm tests.
        self.backoff_history: list = []
        #: Reject reason when the master refused our registration; the
        #: whole agent stops (every slot shares the key, so retrying
        #: other slots could only be refused the same way).
        self.rejected: Optional[str] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Run the agent on a background thread (in-process use)."""
        if self._thread is not None:
            return
        self._stop_event = threading.Event()
        self._thread = threading.Thread(
            target=self.run, name="repro-agent", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        if self._stop_event is not None:
            self._stop_event.set()
        if self._loop is not None and not self._loop.is_closed():
            try:
                self._loop.call_soon_threadsafe(_wake_loop)
            except RuntimeError:  # pragma: no cover - loop raced shut
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the agent to finish on its own (idle_exit)."""
        return self._done.wait(timeout)

    def run(self) -> None:
        """Drive all slots to completion (blocking; the CLI entry)."""
        import asyncio

        if self._stop_event is None:
            self._stop_event = threading.Event()
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._run_slots())
        finally:
            close_event_loop(loop)
            self._loop = None
            self._done.set()

    async def _run_slots(self) -> None:
        import asyncio

        await asyncio.gather(
            *(self._slot_loop(slot) for slot in range(self.slots))
        )

    # -- one slot ------------------------------------------------------------

    async def _slot_loop(self, slot: int) -> None:
        import asyncio

        idle_since = time.monotonic()
        failures = 0
        while not self._stop_event.is_set():
            if (
                self.idle_exit is not None
                and time.monotonic() - idle_since >= self.idle_exit
            ):
                return
            try:
                hosted = await self._serve_once(slot)
            except (ConnectionError, OSError, EOFError):
                hosted = False
            if hosted:
                idle_since = time.monotonic()
                failures = 0
            else:
                failures += 1
                if self.max_redial is not None and failures >= self.max_redial:
                    return
            if not self._stop_event.is_set():
                await asyncio.sleep(self._redial_delay(slot, failures))

    def _redial_delay(self, slot: int, failures: int) -> float:
        """Pause before the next dial.

        Exponential from ``reconnect_delay`` with deterministic seeded
        jitter (the :func:`~repro.faults.recovery.backoff_delay` math
        respawns already use), so an unreachable master sees a few
        probes a minute, not a 5 Hz storm — and a fleet of agents with
        distinct ``backoff_seed`` values spreads its probes instead of
        dialing in lockstep.
        """
        if failures == 0:
            return self.reconnect_delay
        delay = backoff_delay(
            failures,
            self.reconnect_delay,
            self.reconnect_cap,
            self.reconnect_jitter,
            jitter_seed=derive_seed(self.backoff_seed, slot, failures),
        )
        self.backoff_history.append((slot, failures, delay))
        return delay

    async def _serve_once(self, slot: int) -> bool:
        """Dial, register, host at most one worker.  True if one ran."""
        import asyncio

        reader, writer = await asyncio.open_connection(*self.address)
        # Workers this agent forks (for *any* slot) must not inherit
        # this slot's socket: a duplicate fd in a sibling worker keeps
        # the connection established after we close it, so the master
        # never sees the FIN and a dead worker looks alive.
        fd = _writer_fd(writer)
        if fd is not None:
            register_fork_unsafe_fd(fd)
        try:
            writer.write(
                encode_frame(
                    (
                        "hello",
                        {
                            "agent": self.name,
                            "slot": slot,
                            "key": self.key,
                            "pid": os.getpid(),
                        },
                    )
                )
            )
            await writer.drain()
            while True:
                frame = await self._read_or_stop(reader)
                if not is_heartbeat(frame):
                    break
                # A ping can race the spawn frame right after the master
                # binds this slot; ack it and keep waiting.
                writer.write(encode_frame((HEARTBEAT_ACK_TAG, frame[1])))
                await writer.drain()
            if frame is None:
                return False
            if isinstance(frame, tuple) and frame[0] == "reject":
                self.rejected = str(frame[1])
                self._stop_event.set()
                return False
            if not (
                isinstance(frame, tuple)
                and len(frame) == 5
                and frame[0] == "spawn"
            ):
                return False
            _, worker_id, generation, entry, args = frame
            await self._host_worker(
                reader, writer, worker_id, generation, entry, args
            )
            self.workers_hosted += 1
            return True
        finally:
            if fd is not None:
                unregister_fork_unsafe_fd(fd)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_or_stop(self, reader):
        """Next frame, or None when asked to stop while waiting."""
        import asyncio

        read = asyncio.ensure_future(read_frame(reader))
        try:
            while not read.done():
                if self._stop_event.is_set():
                    read.cancel()
                    return None
                await asyncio.wait({read}, timeout=0.2)
            return read.result()
        except asyncio.CancelledError:  # pragma: no cover
            return None

    async def _host_worker(
        self, reader, writer, worker_id, generation, entry, args
    ) -> None:
        """Fork ``entry(conn, *args)`` and bridge pipe <-> socket."""
        import asyncio

        loop = asyncio.get_running_loop()
        parent_conn, child_conn = self._context.Pipe()
        process = fork_safe_process(self._context, entry, child_conn, args)
        process.start()
        child_conn.close()

        worker_eof = asyncio.Event()
        # Worker -> master frames are sequence-stamped here, at the
        # bridge, so master-side dedup can discard a duplicated or
        # retried frame; the worker itself never sees sequence numbers.
        out_sequencer = FrameSequencer()

        def pipe_readable() -> None:
            # Called by the loop whenever the worker's pipe has data
            # (or EOF).  Forward every pending message to the socket.
            try:
                while parent_conn.poll(0):
                    message = parent_conn.recv()
                    writer.write(encode_frame(out_sequencer.stamp(message)))
            except (EOFError, ConnectionError, OSError):
                worker_eof.set()

        loop.add_reader(parent_conn.fileno(), pipe_readable)
        try:
            socket_pump = asyncio.ensure_future(
                self._pump_socket_to_pipe(reader, writer, parent_conn)
            )
            eof_wait = asyncio.ensure_future(worker_eof.wait())
            try:
                while True:
                    done, _ = await asyncio.wait(
                        {socket_pump, eof_wait},
                        timeout=0.2,
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if done or self._stop_event.is_set():
                        break
                    if not process.is_alive() and not parent_conn.poll(0):
                        break
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    pass
            finally:
                for task in (socket_pump, eof_wait):
                    task.cancel()
                await asyncio.gather(
                    socket_pump, eof_wait, return_exceptions=True
                )
        finally:
            loop.remove_reader(parent_conn.fileno())
            self._reap(process, parent_conn)

    async def _pump_socket_to_pipe(self, reader, writer, parent_conn) -> None:
        """Forward master frames ("chunk"/"configure" commands, "stop")
        to the worker.

        Heartbeat pings are echoed straight back on the socket — the
        worker pipe never carries them, so a busy (slow-but-alive)
        worker still acks and liveness monitoring raises no false
        positive.  Sequenced frames are deduplicated here so a
        chaos-duplicated command can never run a chunk twice.
        """
        in_sequencer = FrameSequencer()
        while True:
            frame = await read_frame(reader)
            if is_heartbeat(frame):
                try:
                    writer.write(
                        encode_frame((HEARTBEAT_ACK_TAG, frame[1]))
                    )
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
                continue
            accepted, message = in_sequencer.accept(frame)
            if not accepted:
                continue
            try:
                parent_conn.send(message)
            except (BrokenPipeError, OSError):
                return
            if message == "stop":
                return

    def _reap(self, process, parent_conn) -> None:
        try:
            parent_conn.close()
        except OSError:  # pragma: no cover
            pass
        reap_process(process, timeout=10.0)


def run_agent(options: argparse.Namespace) -> int:
    """Run one agent as the parsed ``options`` describe, until it ends."""
    address = parse_address(options.address)
    agent = HostAgent(
        address,
        slots=options.slots,
        key=options.transport_key,
        context=options.context,
        reconnect_delay=options.reconnect_delay,
        reconnect_cap=options.reconnect_cap,
        backoff_seed=options.backoff_seed,
        max_redial=options.max_redial,
        idle_exit=options.idle_exit,
    )
    print(
        f"repro-agent {agent.name}: offering {agent.slots} slot(s) "
        f"to {address[0]}:{address[1]}",
        file=sys.stderr,
    )
    try:
        agent.run()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    if agent.rejected is not None:
        print(
            f"repro-agent {agent.name}: master rejected registration: "
            f"{agent.rejected}",
            file=sys.stderr,
        )
        return 1
    print(
        f"repro-agent {agent.name}: exiting "
        f"({agent.workers_hosted} worker(s) hosted)",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    """``python -m repro.parallel.agent`` entry."""
    parser = argparse.ArgumentParser(
        prog="repro agent",
        description=(
            "Host remote workers for a repro master "
            "(--backend remote)."
        ),
    )
    from repro.cli import _add_agent_args

    _add_agent_args(parser)
    return run_agent(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
