"""Host agent for the remote transport: run workers for a master.

One agent process per machine.  It dials the master's
:class:`~repro.parallel.transport.RemoteTransport` and registers
``slots`` worker slots; each slot runs on a thread of its own, on a
blocking socket, and independently:

1. connects and sends ``("hello", {...})``;
2. waits for a ``("spawn", worker_id, generation, entry, args)`` frame;
3. forks a local worker process running ``entry(pipe_conn, *args)``
   and bridges the pipe to the socket in both directions (the worker
   never knows it is remote), waiting on the pipe, the socket and the
   worker's exit at once;
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
    FrameSequencer,
    LocalPipeTransport,
    TransportError,
    _bridge_frame,
    close_socket,
    encode_frame,
    parse_address,
    read_frame,
    reap_process,
    register_fork_unsafe_fd,
    shut_socket,
)


#: Fraction of a re-dial delay added as seeded jitter.
_RECONNECT_JITTER = 0.1


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
        ``reconnect_cap``, stretched by up to a tenth of seeded noise),
        so a dead or partitioned master is probed a few times a minute
        instead of hammered at 5 Hz forever.  A successfully hosted
        worker resets the backoff.
    reconnect_cap / backoff_seed:
        Backoff tuning: the delay ceiling and the seed the jitter
        derives from (per slot and attempt, so two agents with
        different seeds never dial in lockstep while one agent replays
        identical delays run-to-run).
    max_redial:
        Budget of *consecutive* failed dial attempts per slot; when
        exhausted the slot gives up (the agent exits once every slot
        has).  ``None`` (default) retries forever.
    idle_exit:
        When set, a slot that cannot reach the master (or sits unbound)
        for this many seconds gives up; the agent stops once every slot
        has given up.  Keeps CI smoke jobs from leaking processes.  Once
        the agent has hosted a worker, a refused dial means the master
        has closed: the slot gives up at once.
    """

    def __init__(
        self,
        address,
        slots: int = 1,
        key: Optional[str] = None,
        context: str = "fork",
        reconnect_delay: float = 0.2,
        reconnect_cap: float = 30.0,
        backoff_seed: int = 0,
        max_redial: Optional[int] = None,
        idle_exit: Optional[float] = None,
    ):
        self.address = tuple(address)
        self.slots = int(slots)
        self.key = key
        self.reconnect_delay = float(reconnect_delay)
        self.reconnect_cap = float(reconnect_cap)
        self.backoff_seed = int(backoff_seed)
        self.max_redial = max_redial
        self.idle_exit = idle_exit
        self.name = f"{socket.gethostname()}:{os.getpid()}"
        #: Forks each hosted worker behind its pipe.
        self._local = LocalPipeTransport(context)
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[threading.Event] = None
        #: Guards every fork, every registration of a new socket, every
        #: close of a worker's pipe and the set of open slot sockets
        #: :meth:`stop` shuts down.
        self._lock = threading.Lock()
        self._sockets: set = set()
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
        self._halt()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def _halt(self) -> None:
        """Ask every slot to end, and wake the ones blocked on a socket."""
        with self._lock:
            if self._stop_event is not None:
                self._stop_event.set()
            sockets = list(self._sockets)
        for sock in sockets:
            shut_socket(sock)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the agent to finish on its own (idle_exit)."""
        return self._done.wait(timeout)

    def run(self) -> None:
        """Drive all slots to completion (blocking; the CLI entry)."""
        if self._stop_event is None:
            self._stop_event = threading.Event()
        slots = [
            threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"repro-agent-slot-{slot}", daemon=True,
            )
            for slot in range(self.slots)
        ]
        for thread in slots:
            thread.start()
        try:
            for thread in slots:
                thread.join()
        finally:
            self._halt()
            self._done.set()

    # -- one slot ------------------------------------------------------------

    def _slot_loop(self, slot: int) -> None:
        idle_since = time.monotonic()
        failures = 0
        while not self._stop_event.is_set():
            if (
                self.idle_exit is not None
                and time.monotonic() - idle_since >= self.idle_exit
            ):
                return
            try:
                hosted = self._serve_once(slot)
            except ConnectionRefusedError:
                if self.idle_exit is not None and self.workers_hosted:
                    return
                hosted = False
            except (TransportError, OSError, EOFError):
                # A dropped connection or a corrupt frame from the
                # master: this slot re-dials, the others never notice.
                hosted = False
            if hosted:
                idle_since = time.monotonic()
                failures = 0
            else:
                failures += 1
                if self.max_redial is not None and failures >= self.max_redial:
                    return
            if not self._stop_event.is_set():
                self._stop_event.wait(self._redial_delay(slot, failures))

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
            _RECONNECT_JITTER,
            jitter_seed=derive_seed(self.backoff_seed, slot, failures),
        )
        self.backoff_history.append((slot, failures, delay))
        return delay

    def _dial(self):
        """A socket connected to the master, woken by :meth:`stop`.

        It is made and its fd registered under the agent's lock, which
        every fork of this agent holds too: a worker forked for another
        slot can never inherit it unregistered.  (Closing needs no lock:
        :func:`close_socket` shuts the connection down first.)
        """
        family, kind, proto, _, address = socket.getaddrinfo(
            *self.address, type=socket.SOCK_STREAM
        )[0]
        with self._lock:
            if self._stop_event.is_set():
                raise ConnectionAbortedError("agent is stopping")
            sock = socket.socket(family, kind, proto)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            register_fork_unsafe_fd(sock.fileno())
            self._sockets.add(sock)
        try:
            sock.connect(address)
        except OSError:
            self._release(sock)
            raise
        return sock

    def _release(self, sock) -> None:
        with self._lock:
            self._sockets.discard(sock)
        close_socket(sock)

    def _serve_once(self, slot: int) -> bool:
        """Dial, register, host at most one worker.  True if one ran."""
        sock = self._dial()
        # The bridge's one sequencer: dedup of master frames, stamping
        # of worker sends.
        sequencer = FrameSequencer()
        try:
            sock.sendall(
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
            while True:
                _, frame, reply = _bridge_frame(sequencer, read_frame(sock))
                if reply is None:
                    break
                # A ping can race the spawn frame right after the master
                # binds this slot; ack it and keep waiting.
                sock.sendall(encode_frame(reply))
            if isinstance(frame, tuple) and frame[0] == "reject":
                self.rejected = str(frame[1])
                self._halt()
                return False
            if not (
                isinstance(frame, tuple)
                and len(frame) == 5
                and frame[0] == "spawn"
            ):
                return False
            _, worker_id, generation, entry, args = frame
            # One fork at a time: a sibling forked while this worker's
            # pipe is half set up would inherit its ends and hide its
            # death until the sibling exits.
            with self._lock:
                endpoint = self._local.spawn(
                    worker_id, generation, entry, args
                )
            self._host_worker(sock, sequencer, endpoint)
            with self._lock:
                self.workers_hosted += 1
            return True
        finally:
            self._release(sock)

    def _host_worker(self, sock, sequencer, endpoint) -> None:
        """Bridge the forked worker's pipe <-> the socket until it ends.

        Worker sends go out stamped, so master-side dedup can discard a
        duplicate.  Master frames ("chunk"/"configure" commands, "stop")
        reach the worker through the bridge: a heartbeat ping is acked
        straight back, so a busy (slow-but-alive) worker still acks and
        liveness monitoring raises no false positive, and a duplicated
        command is dropped, so it can never run a chunk twice.  The
        bridge ends when the worker closes its pipe or exits, when the
        master closes the connection or sends "stop", or when
        :meth:`stop` shuts the socket down.
        """
        from multiprocessing.connection import wait

        conn = endpoint.conn
        sentinel = endpoint.process.sentinel
        try:
            while True:
                ready = wait([conn, sock, sentinel])
                if conn in ready:
                    while conn.poll(0):
                        sock.sendall(
                            encode_frame(sequencer.stamp(conn.recv()))
                        )
                if sock in ready:
                    deliver, message, reply = _bridge_frame(
                        sequencer, read_frame(sock)
                    )
                    if reply is not None:
                        sock.sendall(encode_frame(reply))
                    elif deliver:
                        conn.send(message)
                    if message == "stop":
                        return
                elif sentinel in ready and not conn.poll(0):
                    return
        except (TransportError, EOFError, OSError):
            return
        finally:
            with self._lock:  # no fork may catch the pipe end unregistered
                endpoint.close()
            reap_process(endpoint.process, timeout=10.0)


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

