"""Pluggable worker-dispatch transports for the parallel layer.

The master/slave protocol (:mod:`repro.parallel.master`) and the
persistent :class:`~repro.parallel.pool.WorkerPool` both used to talk
to their workers through raw ``multiprocessing`` pipes, which welded
the fleet to one machine.  This module factors that point-dispatch
layer into a :class:`Transport` abstraction so the same scheduling
loops drive every fleet.  Every worker, a master's slave or a pool's
worker, is a *session* (a ``baseline`` to send first, or None, and a
``step(message, send)`` per command) served by :func:`_serve_session`,
the one pipe loop every worker process runs, or stepped in the
caller's thread by :class:`_InlineTransport`:

- :class:`_InlineTransport` — no processes, no threads, no waiting: the
  serial backends of the master and of a sweep;
- :class:`LocalPipeTransport` — the historical backend: one forked OS
  process per worker, a duplex pipe per process.  Behavior (spawn cost,
  exception surface, shutdown escalation) is unchanged.
- :class:`RemoteTransport` — a TCP server the master owns, on blocking
  sockets: one accept thread and one reader thread per connection.
  :mod:`repro.parallel.agent` host processes dial in and register
  worker *slots*; binding a slot ships the picklable worker entry point
  over the wire and the agent forks the worker locally, bridging its
  pipe to the socket.  Workers may join and leave mid-run (the
  transport is *elastic*); a slot whose agent re-dials after a death
  provides the capacity a respawn claims.

Every transport presents the same synchronous, endpoint-oriented
surface to its caller:

- :meth:`Transport.spawn` returns a :class:`WorkerEndpoint` bound to
  one worker incarnation; the endpoint's ``send`` / ``recv`` /
  ``poll`` raise the same exception families a
  ``multiprocessing.connection.Connection`` does (``BrokenPipeError``
  on send to a dead worker, ``EOFError`` on recv from one), so the
  fault-handling paths upstream are transport-independent.
- :meth:`Transport.wait` multiplexes readiness across endpoints.  Each
  returned endpoint *is* the identity of its worker — callers key
  dispatch off the endpoint object and its ``worker_id``, never off
  ``id()`` of an underlying pipe (connection objects are recycled by
  the allocator; endpoint objects are not reused across incarnations).

Wire format (remote): 4-byte big-endian length prefix followed by a
pickle of the same message objects the local pipes carry.  Pickle over
TCP means the fleet must be a *trusted* network (the same trust model
``multiprocessing`` itself uses); the optional shared ``key`` rejects
accidental cross-talk between fleets, it is not cryptographic
authentication.  Determinism is unaffected by the transport: worker
seeds derive from worker ids, and all merging happens master-side in
worker-id order, so merged digests are bit-identical across local and
remote fleets.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.parallel.protocol import (
    CAUSE_CORRUPT_FRAME,
    CAUSE_HEARTBEAT_TIMEOUT,
    CAUSE_INJECTED,
    CAUSE_LIVENESS_TIMEOUT,
    ParallelError,
)


class TransportError(ParallelError):
    """Raised when a transport cannot carry out an operation."""


class TransportCapacityError(TransportError):
    """No worker capacity is available (yet) to satisfy a spawn."""


class FrameError(TransportError):
    """A wire frame could not be decoded (corrupt prefix / truncation /
    undecodable pickle).

    Carries the ``worker_id`` of the endpoint the frame arrived on when
    known, so the master can attribute the death (cause
    ``"corrupt frame"``) without parsing the message.  Subclasses
    :class:`TransportError`, so handlers catching the transport family
    keep working — but it is *not* an ``EOFError``/``OSError``, so
    :data:`RECV_FAILURES` names it explicitly.
    """

    cause = CAUSE_CORRUPT_FRAME

    def __init__(self, message: str, worker_id: Optional[int] = None):
        super().__init__(message)
        self.worker_id = worker_id


class LivenessError(EOFError):
    """A connection was declared dead by heartbeat monitoring.

    Subclasses ``EOFError`` so every existing pipe-death handler treats
    it as a worker death; the distinct type lets those handlers
    attribute the cause ``"liveness timeout"`` instead of the generic
    ``"pipe closed"``.
    """

    cause = CAUSE_LIVENESS_TIMEOUT


# -- framing ------------------------------------------------------------------

#: Length prefix: 4-byte big-endian unsigned payload size.
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on one frame; a corrupt length prefix must not make the
#: reader try to allocate gigabytes.
MAX_FRAME_BYTES = 1 << 30


def encode_frame(message: object) -> bytes:
    """One protocol message -> length-prefixed pickle bytes."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"message of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return FRAME_HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes, worker_id: Optional[int] = None) -> object:
    """Unpickle one frame payload, never letting decode errors escape raw.

    Every failure mode of ``pickle.loads`` on hostile/corrupt bytes —
    ``UnpicklingError``, truncated-stream ``EOFError``, bogus opcode
    ``ValueError``/``AttributeError``/``ImportError``, even
    ``MemoryError`` from a corrupt embedded length — surfaces as one
    typed :class:`FrameError` the callers already route to a worker
    death.
    """
    try:
        return pickle.loads(payload)
    except Exception as error:
        raise FrameError(
            f"undecodable frame payload ({type(error).__name__}: {error})",
            worker_id=worker_id,
        ) from None


def _recv_exactly(sock, size: int) -> bytearray:
    """Up to ``size`` bytes off ``sock``; fewer only at end of stream.

    Read in chunks, so a corrupt length prefix under the frame bound
    costs memory only for the bytes that really arrive.
    """
    data = bytearray()
    while len(data) < size:
        chunk = sock.recv(min(size - len(data), 1 << 20))
        if not chunk:
            break
        data += chunk
    return data


def read_frame(sock) -> object:
    """Read one length-prefixed pickle frame off a blocking socket.

    Raises ``EOFError`` on a cleanly closed stream and
    :class:`FrameError` on any of the three corruption shapes: a
    length prefix beyond the frame bound, a truncated header/payload,
    or a payload that does not decode.
    """
    header = _recv_exactly(sock, FRAME_HEADER.size)
    if not header:
        raise EOFError("stream closed")
    if len(header) < FRAME_HEADER.size:
        raise FrameError("truncated frame header")
    (length,) = FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound (corrupt prefix?)"
        )
    payload = _recv_exactly(sock, length)
    if len(payload) < length:
        raise FrameError("truncated frame payload")
    return decode_payload(payload)


# -- sequencing and liveness frames -------------------------------------------
#
# Data frames on connection-oriented transports are wrapped as
# ``("__seq__", n, message)`` with ``n`` counting from 1 per connection
# per direction.  The receiving side drops any frame whose sequence
# number does not advance, so a retried or chaos-duplicated send can
# never deliver (and the master can never double-merge) the same report
# twice.  Heartbeat frames — ``("__hb__", n)`` pings from the master,
# ``("__hb_ack__", n)`` echoes from the agent bridge — are unsequenced
# and are consumed below the endpoint surface: they never reach the
# worker pipe or the master inbox, so they are invisible to digests.

SEQ_TAG = "__seq__"
HEARTBEAT_TAG = "__hb__"
HEARTBEAT_ACK_TAG = "__hb_ack__"


def _is_tagged(frame: object, tag: str, length: int) -> bool:
    return (
        isinstance(frame, tuple) and len(frame) == length and frame[0] == tag
    )


def is_sequenced(frame: object) -> bool:
    """True for a ``("__seq__", n, message)`` data frame."""
    return _is_tagged(frame, SEQ_TAG, 3)


def is_heartbeat(frame: object) -> bool:
    """True for a master->agent heartbeat ping."""
    return _is_tagged(frame, HEARTBEAT_TAG, 2)


def is_heartbeat_ack(frame: object) -> bool:
    """True for an agent->master heartbeat echo."""
    return _is_tagged(frame, HEARTBEAT_ACK_TAG, 2)


class FrameSequencer:
    """Per-connection, per-direction sequence stamping and dedup.

    One instance per side per direction.  :meth:`stamp` wraps an
    outbound message under the next number; :meth:`accept` unwraps an
    inbound frame, dropping it when its number does not advance past
    the last accepted one (an unsequenced frame — control traffic,
    local-pipe messages — always passes through untouched).
    """

    def __init__(self) -> None:
        self._next_out = 0
        self._last_in = 0

    def stamp(self, message: object) -> tuple:
        self._next_out += 1
        return (SEQ_TAG, self._next_out, message)

    def accept(self, frame: object):
        """``(accepted, message)``; ``(False, None)`` for a duplicate."""
        if not is_sequenced(frame):
            return True, frame
        seq = frame[1]
        if not isinstance(seq, int) or seq <= self._last_in:
            return False, None
        self._last_in = seq
        return True, frame[2]


def _bridge_frame(sequencer: FrameSequencer, frame: object):
    """The worker-side bridge's rule for one master->worker frame.

    ``(deliver, message, reply)``: a heartbeat ping is answered with an
    ack (``reply``) and never reaches the worker, whatever the worker
    is doing; any other frame passes ``sequencer``'s dedup and, unless
    it is a duplicate, is delivered as ``message``.  The agent bridge
    and the in-memory carrier both run it, and both stamp worker sends
    with ``sequencer.stamp``.
    """
    if is_heartbeat(frame):
        return False, None, (HEARTBEAT_ACK_TAG, frame[1])
    deliver, message = sequencer.accept(frame)
    return deliver, message, None


def raise_for_close(close_reason: Optional[str], worker_id: int) -> None:
    """Raise the typed end-of-channel error for a closed channel.

    The exception family is part of the endpoint contract: liveness
    deaths and clean closes are ``EOFError`` shapes, corrupt frames are
    the :class:`FrameError` the callers name explicitly.
    """
    if close_reason == CAUSE_LIVENESS_TIMEOUT:
        raise LivenessError(
            f"worker {worker_id} declared dead by heartbeat monitoring"
        )
    if close_reason == CAUSE_CORRUPT_FRAME:
        raise FrameError(
            f"worker {worker_id} connection closed after a corrupt frame",
            worker_id=worker_id,
        )
    raise EOFError(f"worker {worker_id} connection closed")


def disconnect_cause(error: BaseException, fallback: str) -> str:
    """Machine-readable cause code for one recv/send failure.

    A typed death (:class:`LivenessError`, :class:`FrameError`, an
    inline slave killed by its fault plan) names its own ``cause``;
    ordinary pipe deaths keep the caller's historical fallback
    (``pipe closed`` / ``worker left`` / ``send failed``).
    """
    return getattr(error, "cause", fallback)


#: Every shape a recv on a dead or corrupt worker channel raises.
RECV_FAILURES = (
    FrameError, EOFError, ConnectionResetError, BrokenPipeError, OSError,
)


def collect_replies(transport, outstanding, fallback: str,
                    wake: Optional[float] = None) -> List[tuple]:
    """One collection turn: wait once, read the ready, expire the silent.

    ``outstanding`` maps worker id -> ``(endpoint, deadline)`` for every
    worker that owes a message (monotonic deadlines, ``None`` = never);
    ``wake`` is an extra instant the caller wants control back at (a
    respawn falling due, an elastic-join poll).  Returns
    ``[(worker_id, message, cause)]`` in the transport's readiness
    order: a delivered message has ``cause`` None; a dead channel has
    the cause its typed error names (liveness timeout, corrupt frame),
    or ``fallback`` for a plain closed/reset pipe.  This is the one
    receive path of the package — master rounds, resume baselines and
    the pool (every sweep backend) all collect through here, on the
    transport's own clock (``transport._now()``).

    Dispatch is by endpoint identity, never by ``id()`` of an
    underlying connection: readiness for an endpoint that is not the
    one ``outstanding`` holds for its worker — a condemned incarnation,
    a worker with nothing in flight, a duplicate signal within this
    turn — is dropped unread, so a replacement can never inherit its
    predecessor's messages.

    When the wait comes back empty, a worker has timed out
    (``heartbeat timeout``) iff the instant the wait was asked to last
    *until* had reached its deadline.  The clock is not read a second
    time: a transport whose ``wait`` never sleeps (the inline serial
    backend) times silence out at once, and a turn cut short by
    ``wake`` expires nobody.
    """
    instants = [d for _, d in outstanding.values() if d is not None]
    if wake is not None:
        instants.append(wake)
    until = min(instants, default=None)
    owed = {worker_id: endpoint
            for worker_id, (endpoint, _) in outstanding.items()}
    ready = transport.wait(
        list(owed.values()),
        timeout=(
            None if until is None else max(0.0, until - transport._now())
        ),
    )
    if not ready:
        return [
            (worker_id, None, CAUSE_HEARTBEAT_TIMEOUT)
            for worker_id, (_, deadline) in outstanding.items()
            if until is None or deadline is not None and deadline <= until
        ]
    replies: List[tuple] = []
    for endpoint in ready:
        worker_id = endpoint.worker_id
        if owed.get(worker_id) is not endpoint:
            continue
        del owed[worker_id]  # a second signal this turn finds nothing owed
        try:
            replies.append((worker_id, endpoint.recv(), None))
        except RECV_FAILURES as error:
            replies.append(
                (worker_id, None, disconnect_cause(error, fallback))
            )
    return replies


# -- fork hygiene --------------------------------------------------------------
#
# A fork()ed worker inherits every open file descriptor of its parent —
# including the TCP sockets of *other* workers' agent connections (and,
# when master and agent share one process in tests, the master's
# accepted sockets) and the master-side ends of its own and its
# siblings' pipes.  An inherited duplicate keeps a connection
# ESTABLISHED in the kernel after both real ends have closed it, so the
# peer never sees the FIN (or the EOF) and a dead or condemned worker
# looks alive until every sibling worker has exited.  Socket and pipe
# owners register their fds here and forked workers close the inherited
# copies before running their entry.

_FORK_UNSAFE_FDS: Set[int] = set()


def register_fork_unsafe_fd(fd: int) -> None:
    """Mark one fd (a live socket or pipe end) to be closed in forked
    workers."""
    _FORK_UNSAFE_FDS.add(fd)


def unregister_fork_unsafe_fd(fd: int) -> None:
    """Remove one fd from the registry (call *before* closing it)."""
    _FORK_UNSAFE_FDS.discard(fd)


def scrub_inherited_fds() -> None:
    """Close every registered fd (worker child side, post-fork).

    The child's copy of the registry is the fork-time snapshot, so it
    names exactly the inherited duplicates that must go.
    """
    for fd in list(_FORK_UNSAFE_FDS):
        try:
            os.close(fd)
        except OSError:
            pass
    _FORK_UNSAFE_FDS.clear()


def _scrubbed_entry(conn, entry, args):
    """Worker-process shim: drop inherited sockets, then run ``entry``."""
    scrub_inherited_fds()
    entry(conn, *args)


def fork_safe_process(context, entry, conn, args):
    """A worker ``Process`` whose fork-started child scrubs inherited fds.

    Under the ``fork`` start method the child inherits every open fd,
    so route through :func:`_scrubbed_entry`; ``spawn``/``forkserver``
    children inherit nothing and run ``entry`` directly.
    """
    if context.get_start_method() == "fork":
        return context.Process(
            target=_scrubbed_entry,
            args=(conn, entry, tuple(args)),
            daemon=True,
        )
    return context.Process(
        target=entry, args=(conn,) + tuple(args), daemon=True
    )


def shut_socket(sock) -> None:
    """End the connection behind ``sock``, whatever copies of its fd
    exist (a worker forked in between holds one); a thread blocked
    reading ``sock`` wakes at end of stream, and one blocked in
    ``accept`` on a listener wakes with an error."""
    import socket

    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def close_socket(sock) -> None:
    """Shut ``sock`` down, unregister its fd, then close it.

    Only the thread that reads ``sock`` closes it; any other thread
    wakes that one with :func:`shut_socket`.  Unregister *before*
    close: once the fd number is freed the OS may hand it to an
    unrelated socket, and a stale registry entry would make a forked
    worker close that newcomer.
    """
    shut_socket(sock)
    fd = sock.fileno()
    if fd >= 0:
        unregister_fork_unsafe_fd(fd)
    sock.close()


# -- the abstraction ----------------------------------------------------------


class WorkerEndpoint:
    """One live channel to one worker incarnation.

    Endpoint objects are never reused: a respawned worker gets a fresh
    endpoint, so object identity distinguishes incarnations even when
    the underlying OS resources are recycled.
    """

    #: Worker id this endpoint is bound to.
    worker_id: int
    #: Incarnation (0 = original fleet, +1 per respawn).
    generation: int

    def send(self, message: object) -> None:
        raise NotImplementedError

    def recv(self) -> object:
        raise NotImplementedError

    def poll(self, timeout: Optional[float] = None) -> bool:
        """True when a message (or EOF) is ready within ``timeout``."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def describe(self) -> dict:
        """Trace-friendly description of the far end."""
        raise NotImplementedError


class Transport:
    """Factory + multiplexer for :class:`WorkerEndpoint` channels."""

    #: Short name carried in trace records.
    kind: str = "abstract"
    #: True when workers join and leave on their own schedule (the
    #: caller polls the transport's ``capacity`` and admits joins
    #: mid-run); only an elastic transport has ``capacity``.
    elastic: bool = False

    def __init__(self) -> None:
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.observability.Tracer` (optional)."""
        self._tracer = tracer

    def _trace(self, name: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.event(name, component="transport", **fields)

    def _now(self) -> float:
        """The clock reply deadlines and respawn due times are read on."""
        return time.monotonic()

    def start(self) -> None:
        """Bring the transport up (idempotent)."""

    def spawn(
        self,
        worker_id: int,
        generation: int,
        entry,
        args: Tuple,
        timeout: Optional[float] = None,
    ) -> WorkerEndpoint:
        """Start one worker running ``entry(conn, *args)``.

        ``entry`` must be a module-level (picklable) callable; the
        worker's end of the channel is passed as its first argument.
        ``timeout`` bounds how long to wait for capacity; raises
        :class:`TransportCapacityError` when none arrives in time.
        """
        raise NotImplementedError

    def wait(
        self,
        endpoints: Sequence[WorkerEndpoint],
        timeout: Optional[float] = None,
    ) -> List[WorkerEndpoint]:
        """Endpoints with a message (or EOF) ready, or [] on timeout."""
        raise NotImplementedError

    def reap(self, endpoint: WorkerEndpoint) -> None:
        """Release one condemned endpoint's resources for good."""

    def shutdown(self, endpoints: Sequence[WorkerEndpoint]) -> None:
        """Stop the given workers (the transport itself stays usable)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the transport itself down (idempotent).

        Separate from :meth:`shutdown` so one transport can serve many
        runs; whoever constructed the transport closes it.
        """


# -- the two session hosts ----------------------------------------------------


def _serve_session(conn, session_type, *args):
    """Entry point of every worker process: one session over a pipe.

    ``session_type(*args)`` builds the master's slave or the pool's
    worker; its baseline (if any) goes out first, then each command is
    one ``step`` until the string ``"stop"``, or until the master closes
    its end, which is how a condemned worker is told to go.
    """
    session = session_type(*args)
    if session.baseline is not None:
        conn.send(session.baseline)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message == "stop":
            conn.close()
            return
        session.step(message, conn.send)


class _InjectedDeath(BrokenPipeError):
    """An inline worker killed by its fault plan: a dead pipe on send and
    recv alike, which still names its cause."""

    cause = f"{CAUSE_INJECTED}: kill"


class _InjectedHang(Exception):
    """Unwinds an inline worker out of a hang its reply deadline outlasts."""


class _InlineEndpoint(WorkerEndpoint):
    """A session stepped in the caller's own thread.

    ``send`` runs the command to completion and queues whatever the
    session sends; ``recv`` pops it.  A scheduled kill's ``SystemExit``
    is caught here and closes the channel the way a dead process closes
    its pipe, and the injector sleeps through this endpoint, so a
    scheduled hang leaves it open and silent — the caller sees the
    shapes it sees on a pipe.  Genuine exceptions (a crashing factory,
    say) propagate to the caller: debuggers, profilers and the
    sanitizer see the worker.
    """

    def __init__(self, worker_id, generation, args, reply_timeout):
        self.worker_id = worker_id
        self.generation = generation
        self._reply_timeout = reply_timeout
        self._inbox: deque = deque()
        self._dead = False
        session_type, *session_args = args
        self._session = session_type(*session_args, sleeper=self._sleep)
        if self._session.baseline is not None:
            self._inbox.append(self._session.baseline)

    def _sleep(self, delay: float) -> None:
        # A nap the reply deadline would sit out costs nothing; one it
        # would not is silence for the rest of the run.
        if self._reply_timeout is not None and delay >= self._reply_timeout:
            raise _InjectedHang()

    def send(self, message: object) -> None:
        if self._dead:
            raise _InjectedDeath(f"inline worker {self.worker_id} is gone")
        if self._session is None or message == "stop":
            return  # hung or closed: nobody is reading
        try:
            self._session.step(message, self._inbox.append)
        except SystemExit:
            # Whatever was queued before the exit (a post_report kill's
            # report) is still delivered; the next send or recv fails.
            self._dead = True
            self._session = None
        except _InjectedHang:
            self._session = None

    def recv(self) -> object:
        if self._inbox:
            return self._inbox.popleft()
        raise _InjectedDeath(f"inline worker {self.worker_id} is gone")

    def poll(self, timeout: Optional[float] = None) -> bool:
        return bool(self._inbox) or self._dead

    def close(self) -> None:
        self._session = None


class _InlineTransport(Transport):
    """No processes, no threads, no waiting: the serial backends.

    ``reply_timeout`` is the caller's per-reply deadline (round or job
    timeout).  A :meth:`wait` with nothing to return moves this
    transport's clock (:meth:`_now`) on by its timeout instead of
    sleeping, so a silent worker times out, and a respawn backoff
    elapses, at once.
    """

    kind = "inline"

    def __init__(self, reply_timeout: Optional[float]):
        super().__init__()
        self._reply_timeout = reply_timeout
        self._skipped = 0.0

    def _now(self) -> float:
        return time.monotonic() + self._skipped

    def spawn(self, worker_id, generation, entry, args, timeout=None):
        # ``entry`` is the pipe loop around the session ``args`` name;
        # inline, the endpoint's ``send`` is that loop.
        return _InlineEndpoint(
            worker_id, generation, args, self._reply_timeout
        )

    def wait(self, endpoints, timeout=None):
        ready = [endpoint for endpoint in endpoints if endpoint.poll()]
        if not ready and timeout:
            self._skipped += timeout
        return ready

    def shutdown(self, endpoints) -> None:
        for endpoint in endpoints:
            endpoint.close()


# -- local (pipe + fork) transport --------------------------------------------


class LocalEndpoint(WorkerEndpoint):
    """A forked worker process behind a duplex pipe."""

    def __init__(self, worker_id, generation, conn, process,
                 fork_unsafe_fd: Optional[int] = None):
        self.worker_id = worker_id
        self.generation = generation
        self.conn = conn
        self.process = process
        #: The fd of ``conn`` while it is registered fork-unsafe.
        self._fork_unsafe_fd = fork_unsafe_fd

    def _forget_fd(self) -> None:
        """Unregister ``conn``'s fd (before it closes), once."""
        if self._fork_unsafe_fd is not None:
            unregister_fork_unsafe_fd(self._fork_unsafe_fd)
            self._fork_unsafe_fd = None

    def send(self, message: object) -> None:
        self.conn.send(message)

    def recv(self) -> object:
        return self.conn.recv()

    def poll(self, timeout: Optional[float] = None) -> bool:
        return self.conn.poll(timeout)

    def close(self) -> None:
        self._forget_fd()
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def describe(self) -> dict:
        return {
            "transport": "local",
            "pid": getattr(self.process, "pid", None),
            "worker": self.worker_id,
            "generation": self.generation,
        }


class LocalPipeTransport(Transport):
    """The historical single-host backend: fork + pipe per worker."""

    kind = "local"
    elastic = False

    def __init__(self, context: str = "fork"):
        super().__init__()
        from multiprocessing import get_context

        self._context = get_context(context)

    def spawn(self, worker_id, generation, entry, args, timeout=None):
        parent_conn, child_conn = self._context.Pipe()
        # Neither this worker nor a later sibling may keep a copy of the
        # master's end: closing it must reach the worker as EOF.
        fd = parent_conn.fileno()
        register_fork_unsafe_fd(fd)
        process = fork_safe_process(self._context, entry, child_conn, args)
        process.start()
        child_conn.close()
        self._trace("spawn", backend="local", worker=worker_id,
                    generation=generation, pid=process.pid)
        return LocalEndpoint(worker_id, generation, parent_conn, process, fd)

    def wait(self, endpoints, timeout=None):
        from multiprocessing.connection import wait as _wait_ready

        if not endpoints:
            if timeout:
                # Nothing to multiplex: honoring the timeout IS the wait.
                time.sleep(timeout)  # simlint: disable=blocking-sleep-in-transport
            return []
        ready = _wait_ready(
            [endpoint.conn for endpoint in endpoints], timeout=timeout
        )
        # Identity comparison is safe here: the endpoints list is
        # captured for the duration of this call, so no connection
        # object can be freed (and its address recycled) mid-lookup.
        ready_ids = {id(conn) for conn in ready}
        return [e for e in endpoints if id(e.conn) in ready_ids]

    def reap(self, endpoint) -> None:
        reap_process(endpoint.process)

    def shutdown(self, endpoints) -> None:
        for endpoint in endpoints:
            endpoint._forget_fd()
        shutdown_processes(
            [endpoint.process for endpoint in endpoints],
            [endpoint.conn for endpoint in endpoints],
            tracer=self._tracer,
            worker_ids=[endpoint.worker_id for endpoint in endpoints],
        )


def shutdown_processes(
    processes,
    pipes,
    join_timeout: float = 30.0,
    escalation_timeout: float = 5.0,
    tracer=None,
    worker_ids: Optional[Sequence[int]] = None,
) -> List[tuple]:
    """Stop worker processes, escalating join → terminate → kill.

    Each worker first gets a cooperative ``"stop"`` and a
    ``join_timeout`` to exit cleanly; a survivor is terminated
    (SIGTERM) and, failing that too, killed (SIGKILL) — a hung or
    signal-ignoring worker must never wedge the master's exit path.
    Returns ``[(worker_id, action), ...]`` for every escalation
    beyond the clean join (``"terminate"`` / ``"kill"``), which is
    also what makes this testable with fake process objects.
    ``worker_ids`` names the workers behind ``processes`` (a fleet that
    lost members is sparse); without it they are numbered by position.
    """
    for pipe in pipes:
        try:
            pipe.send("stop")
            pipe.close()
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    escalations: List[tuple] = []
    if worker_ids is None:
        worker_ids = range(len(processes))
    for worker_id, process in zip(worker_ids, processes):
        action = _stop_process(process, join_timeout, escalation_timeout)
        if action is None:
            continue
        escalations.append((worker_id, action))
        if tracer is not None:
            tracer.event(
                "shutdown_escalation",
                component="master",
                slave=worker_id,
                action=action,
            )
    return escalations


def _stop_process(process, join_timeout, escalation_timeout) -> Optional[str]:
    """join → terminate → kill one process; the last escalation it
    took (``"terminate"`` / ``"kill"``), or None for a clean join."""
    process.join(timeout=join_timeout)
    if not process.is_alive():
        return None
    process.terminate()
    process.join(timeout=escalation_timeout)
    if not process.is_alive():
        return "terminate"
    # multiprocessing.Process.kill() exists since 3.7; fall back to
    # terminate-again for exotic fakes without it.
    kill = getattr(process, "kill", process.terminate)
    kill()
    process.join(timeout=escalation_timeout)
    return "kill"


def reap_process(process, timeout: float = 5.0) -> None:
    """Ensure one dead-or-condemned worker process is truly gone.

    A worker whose pipe is closed leaves on EOF at once, so it gets one
    second to do so; only a hung one is left, and it is terminated, then
    killed, ``timeout`` apart.
    """
    _stop_process(process, 1.0 if process.is_alive() else 0.0, timeout)


# -- the framed channel (remote and in-memory transports) ---------------------


def _after(delay: float, deliver, frame: object) -> None:
    """``deliver(frame)`` on a timer thread ``delay`` s from now: a
    delayed frame never blocks the thread that carries it."""
    timer = threading.Timer(delay, deliver, args=(frame,))
    timer.daemon = True
    timer.start()


class _FramedChannel:
    """Master-side state of one framed worker connection.

    Everything the frame pipeline needs and no carrier detail: the
    inbox, the closed flag and its reason, the one inbound dedup, the
    liveness stamp, the partition blackhole flags and the frame faults
    scheduled for the bound incarnation.  It lives on both sides of a
    thread boundary — the carrier's thread pushes inbound frames and
    flips ``closed``, the scheduling thread pops frames — so every
    field is guarded by ``cond``, the owning transport's condition
    variable.  A carrier subclass says how one frame is transmitted,
    how the connection is torn down, and what the far end is; it hands
    every frame it carries in to :meth:`receive`.

    Frame faults (a plan's frame kinds, see :mod:`repro.parallel.chaos`)
    apply where the channel meets the wire: inbound in :meth:`push`,
    just before the dedup, outbound in :meth:`FramedEndpoint.send`, just
    after stamping.  A fault's ``round`` is the ordinal of a sequenced
    frame, per direction, on this incarnation's channel.
    """

    #: Text of the ``BrokenPipeError`` a send on the closed channel
    #: raises; it ends up in ``send failed: ...`` cause codes.
    closed_text = "worker {} connection is closed"

    def __init__(self, transport: "_FramedTransport"):
        self.cond = transport._cond
        self._clock = transport._now
        self.inbox: Deque[object] = deque()
        self.closed = False
        #: Why the channel closed, when more specific than a plain EOF
        #: (``CAUSE_LIVENESS_TIMEOUT`` / ``CAUSE_CORRUPT_FRAME``).
        self.close_reason: Optional[str] = None
        #: Stamps outbound and dedups inbound frames (separate counters).
        self.sequencer = FrameSequencer()
        #: Transport-clock time of the last life sign (any inbound frame).
        self.last_ack = self._clock()
        #: Half-open partition injection: ``blackhole_in`` silently
        #: discards everything the worker side sends (acks included);
        #: ``blackhole_out`` discards everything written to it (pings
        #: included).  Both sit below the heartbeat layer.
        self.blackhole_in = False
        self.blackhole_out = False
        #: ``(direction, ordinal) -> FaultSpec`` for the bound
        #: incarnation, set by :meth:`arm` before the worker can send.
        self.faults: Dict[Tuple[str, int], object] = {}
        self.ordinals = {"in": 0, "out": 0}
        self._trace: Optional[Callable[..., None]] = None
        #: ``(worker_id, generation)`` once bound, else None (a lobby slot).
        self.bound: Optional[Tuple[int, int]] = None

    def ready(self) -> bool:
        """A frame (or the end of the channel) can be read right now."""
        return bool(self.inbox) or self.closed

    def arm(self, faults, trace, worker_id: int, generation: int) -> None:
        """Bind one incarnation: schedule its frame faults and open the
        liveness window (a slot may have sat unbound far longer than it)."""
        self.faults = {(spec.direction, spec.round): spec for spec in faults}
        self._trace = trace
        self.bound = (worker_id, generation)
        self.last_ack = self._clock()

    def fault_for(self, direction: str):
        """The fault scheduled for the next sequenced frame in
        ``direction`` (traced as ``transport/net_fault``), or None."""
        if not self.faults:
            return None
        self.ordinals[direction] += 1
        ordinal = self.ordinals[direction]
        spec = self.faults.get((direction, ordinal))
        if spec is not None:
            worker_id, generation = self.bound
            self._trace(
                "net_fault", fault=spec.kind, direction=direction,
                worker=worker_id, generation=generation, round=ordinal,
            )
        return spec

    # Called from the carrier's thread.
    def receive(self, frame: object) -> None:
        """One frame off the carrier: a life sign, then data for :meth:`push`.

        An inbound partition drops everything, acks included, below
        this layer, exactly like a silently dropped route.
        """
        if self.blackhole_in:
            return
        self.last_ack = self._clock()
        if not is_heartbeat_ack(frame):
            self.push(frame)

    def push(self, frame: object) -> None:
        """One inbound frame: its scheduled fault, then the dedup.

        A closed channel is a closed socket: whatever the carrier still
        delivers after the close is lost.
        """
        with self.cond:
            if self.closed:
                return
            spec = self.fault_for("in") if is_sequenced(frame) else None
            if spec is None:
                self._accept(frame)
            elif spec.kind == "delay":
                _after(spec.delay, self._accept_late, frame)
            elif spec.kind == "duplicate":
                # The copy carries the same sequence number: the dedup
                # in _accept is what keeps a report from merging twice.
                self._accept(frame)
                self._accept(frame)
            elif spec.kind == "corrupt":
                self.mark_closed(CAUSE_CORRUPT_FRAME)
                self.teardown()
            elif spec.kind == "partition":
                self.blackhole_in = True
            # "drop": the frame vanishes

    def _accept(self, frame: object) -> None:
        """Dedup one frame onto the inbox (``cond`` held)."""
        accepted, message = self.sequencer.accept(frame)
        if accepted:
            self.inbox.append(message)
            self.cond.notify_all()

    def _accept_late(self, frame: object) -> None:
        """Deliver an inbound frame held back by a delay fault."""
        with self.cond:
            if not self.closed:
                self._accept(frame)

    def mark_closed(self, reason: Optional[str] = None) -> None:
        with self.cond:
            if reason is not None and self.close_reason is None:
                self.close_reason = reason
            self.closed = True
            self.cond.notify_all()

    # -- what the carrier defines --------------------------------------------

    def transmit(self, frame: object) -> None:
        """Put one master->worker frame on the carrier."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Close the channel and release the carrier's resources."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Trace-friendly description of the carrier and the far end."""
        raise NotImplementedError


class FramedEndpoint(WorkerEndpoint):
    """One worker incarnation behind a :class:`_FramedChannel`.

    ``send`` stamps each message under the next sequence number, then
    applies the outbound fault the channel schedules for that frame, if
    any (a duplicate sends the *same* stamped frame twice, so the far
    end's dedup must discard the copy).  ``recv``/``poll`` read the
    channel's inbox, which holds only frames past its one dedup — a
    deduplicated duplicate never makes the endpoint look ready.
    """

    def __init__(self, channel: _FramedChannel, worker_id, generation):
        self.channel = channel
        self.worker_id = worker_id
        self.generation = generation

    def send(self, message: object) -> None:
        channel = self.channel
        frame = channel.sequencer.stamp(message)
        spec = channel.fault_for("out")
        if spec is None:
            self._transmit(frame)
        elif spec.kind == "delay":
            _after(spec.delay, self._transmit_late, frame)
        elif spec.kind == "duplicate":
            self._transmit(frame)
            self._transmit(frame)
        elif spec.kind == "partition":
            with channel.cond:
                channel.blackhole_out = True
        elif spec.kind == "agent_crash":
            channel.teardown()
            raise BrokenPipeError(
                f"worker {self.worker_id}: injected agent crash"
            )
        # "drop": the sequence number is consumed; the frame vanishes

    def _transmit(self, frame: object) -> None:
        if self.channel.closed:
            raise BrokenPipeError(
                self.channel.closed_text.format(self.worker_id)
            )
        self.channel.transmit(frame)

    def _transmit_late(self, frame: object) -> None:
        try:
            self._transmit(frame)
        except (TransportError, OSError):
            pass  # the worker died while the frame was in flight

    def recv(self) -> object:
        channel = self.channel
        with channel.cond:
            channel.cond.wait_for(channel.ready)
            if channel.inbox:
                return channel.inbox.popleft()
        raise_for_close(channel.close_reason, self.worker_id)

    def poll(self, timeout: Optional[float] = None) -> bool:
        with self.channel.cond:
            return self.channel.cond.wait_for(self.channel.ready, timeout)

    def close(self) -> None:
        self.channel.teardown()

    def describe(self) -> dict:
        return {
            **self.channel.describe(),
            "worker": self.worker_id,
            "generation": self.generation,
        }


class _FramedTransport(Transport):
    """What the framed transports share: the condition variable every
    channel of the transport is guarded by, readiness multiplexing over
    it, and the heartbeat: when ``heartbeat_interval`` is set,
    :meth:`start` runs a thread that applies the rule (:meth:`_beat`)
    every interval, and :meth:`close` stops it.

    Their ``spawn`` takes one more argument, ``faults``: the frame-kind
    entries of a fault plan addressed to the incarnation, armed on its
    channel before the worker can send (see
    :func:`repro.parallel.chaos.with_frame_faults`).
    """

    def __init__(
        self,
        heartbeat_interval: Optional[float] = None,
        heartbeat_misses: int = 3,
    ):
        super().__init__()
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise TransportError(
                f"heartbeat_interval must be > 0 or None, "
                f"got {heartbeat_interval}"
            )
        if heartbeat_misses < 1:
            raise TransportError(
                f"heartbeat_misses must be >= 1, got {heartbeat_misses}"
            )
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_misses = heartbeat_misses
        self._cond = threading.Condition()
        self._channels: List[_FramedChannel] = []
        self._beats = 0
        self._heart: Optional[threading.Thread] = None
        self._heart_stop = threading.Event()

    def start(self) -> None:
        if self.heartbeat_interval is not None and self._heart is None:
            self._heart_stop = threading.Event()
            self._heart = threading.Thread(
                target=self._heartbeat, args=(self._heart_stop,),
                name="repro-heartbeat", daemon=True,
            )
            self._heart.start()

    def _heartbeat(self, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            self._beat()

    def close(self) -> None:
        """Stop the heartbeat, then tear every channel down."""
        if self._heart is not None:
            self._heart_stop.set()
            self._heart.join(timeout=5.0)
            self._heart = None
        with self._cond:
            channels = list(self._channels)
            self._channels.clear()
        for channel in channels:
            channel.teardown()

    def wait(self, endpoints, timeout=None):
        def ready():
            return [e for e in endpoints if e.channel.ready()]

        with self._cond:
            return self._cond.wait_for(ready, timeout)

    def _beat(self) -> None:
        """One heartbeat: ping every bound, open channel, then close the
        ones silent for longer than ``interval * misses``.

        Pings are addressed only to bound channels (lobby slots are idle
        by design).  Pinging first means a bridge that acks at once is
        never found silent, however late this tick runs.  A silent
        channel closes with reason ``"liveness timeout"``, which recv
        maps to :class:`LivenessError`, so a half-open connection
        (packets dropped one way, no FIN ever) surfaces within the
        window instead of stalling a round to its deadline.
        """
        self._beats += 1
        with self._cond:
            bound = [
                channel for channel in self._channels
                if not channel.closed and channel.bound is not None
            ]
        for channel in bound:
            channel.transmit((HEARTBEAT_TAG, self._beats))
        now = self._now()
        window = self.heartbeat_interval * self.heartbeat_misses
        for channel in bound:
            silent_for = now - channel.last_ack
            if channel.closed or silent_for <= window:
                continue
            channel.mark_closed(CAUSE_LIVENESS_TIMEOUT)
            channel.teardown()
            worker_id, generation = channel.bound
            self._trace(
                "liveness_timeout", worker=worker_id, generation=generation,
                silent_for=silent_for, **channel.describe(),
            )


# -- remote (TCP) transport ---------------------------------------------------
#
# Blocking sockets on threads: one accept thread, and one reader thread
# per agent connection that owns its socket — it reads the hello, then
# every frame, and closes the socket when the connection ends.  Any
# other thread ends a connection with ``shut_socket``, which wakes the
# reader at end of stream.


class _AgentChannel(_FramedChannel):
    """One agent connection (one worker slot) on a blocking socket."""

    closed_text = "remote worker {} connection is closed"

    def __init__(self, sock, info: dict, transport):
        super().__init__(transport)
        self.sock = sock
        self.info = dict(info)
        #: Commands, pings and delayed frames come from different
        #: threads; one frame goes out whole before the next.
        self._send_lock = threading.Lock()

    def transmit(self, frame: object) -> None:
        """Send one frame; a dead socket marks the channel closed."""
        if self.blackhole_out:
            # Injected half-open partition, outbound leg: frames (and
            # heartbeat pings) are dropped on the floor, never erroring.
            return
        data = encode_frame(frame)
        try:
            with self._send_lock:
                self.sock.sendall(data)
        except OSError:
            self.mark_closed()

    def teardown(self) -> None:
        self.mark_closed()
        shut_socket(self.sock)

    def describe(self) -> dict:
        return {
            "transport": "remote",
            "agent": self.info.get("agent"),
            "slot": self.info.get("slot"),
        }


class RemoteTransport(_FramedTransport):
    """Master side of the multi-host fleet: a TCP registration server.

    The master listens; :mod:`repro.parallel.agent` processes dial in
    and say hello, landing their slot in the *lobby*.  ``spawn`` claims
    a lobby slot, ships the worker entry point, and returns the bound
    endpoint.  A slot whose connection drops mid-run surfaces exactly
    like a dead local worker (``EOFError`` on recv); the agent re-dials
    and the fresh registration is the capacity a respawn (or an elastic
    join) claims.

    Parameters
    ----------
    host / port:
        Listen address; port 0 picks a free port (read the bound
        address back from :attr:`address` after :meth:`start`).
    key:
        Optional shared secret agents must echo in their hello; a
        mismatched registration is rejected.  Fleet-hygiene only — the
        wire is pickle, so run on trusted networks.
    heartbeat_interval / heartbeat_misses:
        When ``heartbeat_interval`` is set, the transport pings every
        *bound* channel each interval and the agent bridge echoes each
        ping without involving the worker.  A channel silent (no frame,
        no ack) for ``interval * misses`` seconds is declared dead with
        reason ``"liveness timeout"`` — so a half-open connection
        (packets silently dropped one way, no FIN ever) surfaces in
        seconds instead of stalling a round to its deadline.  Heartbeat
        traffic never reaches the worker pipe or the master inbox, so
        digests are unaffected.
    """

    kind = "remote"
    elastic = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        key: Optional[str] = None,
        heartbeat_interval: Optional[float] = None,
        heartbeat_misses: int = 3,
    ):
        super().__init__(heartbeat_interval, heartbeat_misses)
        self.host = host
        self.port = port
        self.key = key
        #: (host, port) actually bound, set by :meth:`start`.
        self.address: Optional[Tuple[str, int]] = None
        self._lobby: Deque[_AgentChannel] = deque()
        self._listener = None
        self._acceptor: Optional[threading.Thread] = None
        #: ``(reader thread, its socket)`` per connection still open.
        self._readers: List[tuple] = []
        self._stopping = False

    # -- lifecycle (called from the scheduling thread) -----------------------

    def start(self) -> None:
        if self._listener is not None:
            return
        import socket

        try:
            family = socket.getaddrinfo(
                self.host, self.port, type=socket.SOCK_STREAM
            )[0][0]
            listener = socket.create_server(
                (self.host, self.port), family=family
            )
        except OSError as error:
            raise TransportError(
                f"cannot listen on {self.host}:{self.port}: {error}"
            ) from None
        register_fork_unsafe_fd(listener.fileno())
        self._listener = listener
        self.address = listener.getsockname()[:2]
        self._acceptor = threading.Thread(
            target=self._accept, args=(listener,),
            name="repro-remote-accept", daemon=True,
        )
        self._acceptor.start()
        super().start()
        self._trace("listen", host=self.address[0], port=self.address[1])

    def close(self) -> None:
        """Stop accepting, drop every connection and join every carrier
        thread: nothing of this transport runs once it returns."""
        with self._cond:
            self._stopping = True
            self._lobby.clear()
            self._cond.notify_all()
        listener, self._listener = self._listener, None
        if listener is not None:
            shut_socket(listener)
            self._acceptor.join(timeout=10.0)
            self._acceptor = None
        super().close()
        with self._cond:
            readers, self._readers = self._readers, []
        for thread, sock in readers:
            shut_socket(sock)
            thread.join(timeout=10.0)

    # -- carrier threads -----------------------------------------------------

    def _accept(self, listener) -> None:
        """Hand every incoming connection to a reader thread of its own."""
        import socket

        try:
            while True:
                try:
                    sock, _ = listener.accept()
                except OSError:  # shut down by close()
                    return
                register_fork_unsafe_fd(sock.fileno())
                # Frames are whole messages: send each at once.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                reader = threading.Thread(
                    target=self._serve, args=(sock,),
                    name="repro-remote-reader", daemon=True,
                )
                with self._cond:
                    self._readers = [
                        entry for entry in self._readers
                        if entry[0].is_alive()
                    ]
                    self._readers.append((reader, sock))
                reader.start()
        finally:
            close_socket(listener)

    def _serve(self, sock) -> None:
        """One connection, start to end: hello, then every frame."""
        try:
            self._serve_frames(sock)
        finally:
            close_socket(sock)

    def _hello(self, sock) -> Optional[dict]:
        """The agent's registration, or None for a connection to drop."""
        try:
            sock.settimeout(30.0)
            hello = read_frame(sock)
            sock.settimeout(None)
        except (EOFError, TransportError, OSError):  # OSError: timed out
            return None
        if not (
            isinstance(hello, tuple)
            and len(hello) == 2
            and hello[0] == "hello"
            and isinstance(hello[1], dict)
        ):
            return None
        info = hello[1]
        if self.key is not None and info.get("key") != self.key:
            try:
                sock.sendall(encode_frame(("reject", "bad key")))
            except OSError:  # pragma: no cover
                pass
            self._trace("register_rejected", agent=info.get("agent"))
            return None
        return info

    def _serve_frames(self, sock) -> None:
        info = self._hello(sock)
        if info is None:
            return
        channel = _AgentChannel(sock, info, self)
        slot_key = (info.get("agent"), info.get("slot"))
        stale: List[_AgentChannel] = []
        with self._cond:
            if self._stopping:
                return
            # One connection per (agent, slot): an agent slot only
            # re-dials after tearing down its previous connection, so
            # any unclosed channel with the same identity is a zombie
            # whose FIN never arrived (e.g. an fd duplicate held open
            # by a forked sibling worker).  Supersede it so its death
            # is seen now, not when the duplicate finally dies.
            for old in self._channels:
                if not old.closed and (
                    (old.info.get("agent"), old.info.get("slot"))
                    == slot_key
                ):
                    old.closed = True
                    stale.append(old)
            self._channels = [c for c in self._channels if not c.closed]
            self._channels.append(channel)
            for old in stale:
                if old in self._lobby:
                    self._lobby.remove(old)
            self._lobby.append(channel)
            self._cond.notify_all()
        for old in stale:
            old.teardown()
            self._trace(
                "supersede",
                agent=slot_key[0],
                slot=slot_key[1],
                bound=old.bound,
            )
        self._trace(
            "register", agent=info.get("agent"), slot=info.get("slot")
        )
        try:
            while True:
                channel.receive(read_frame(sock))
        except FrameError as error:
            # Attribute the corruption to the bound worker before the
            # generic close path runs: recv surfaces it as a typed
            # FrameError instead of a bare EOF.
            channel.mark_closed(CAUSE_CORRUPT_FRAME)
            self._trace(
                "corrupt_frame",
                agent=channel.info.get("agent"),
                bound=channel.bound,
                error=str(error),
            )
        except (EOFError, TransportError, OSError):
            pass
        finally:
            channel.mark_closed()
            with self._cond:
                if channel in self._lobby:
                    self._lobby.remove(channel)
            self._trace(
                "leave",
                agent=channel.info.get("agent"),
                bound=channel.bound,
            )

    # -- Transport surface ---------------------------------------------------

    def _lobby_open(self) -> bool:
        """Whether a live slot is waiting (call with ``_cond`` held)."""
        while self._lobby and self._lobby[0].closed:
            self._lobby.popleft()
        return bool(self._lobby)

    def capacity(self) -> int:
        """Agent slots that could be bound right now without blocking."""
        with self._cond:
            self._lobby_open()
            return len(self._lobby)

    def wait_for_capacity(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`capacity` > 0 or ``timeout`` passes."""
        with self._cond:
            return self._cond.wait_for(self._lobby_open, timeout)

    def spawn(self, worker_id, generation, entry, args, timeout=None,
              faults=()):
        with self._cond:
            if not self._cond.wait_for(self._lobby_open, timeout or 0.0):
                raise TransportCapacityError(
                    f"no registered agent slot to bind worker "
                    f"{worker_id} (lobby empty; start agents with "
                    f"'repro agent {self._address_hint()}')"
                )
            channel = self._lobby.popleft()
            channel.arm(faults, self._trace, worker_id, generation)
        channel.transmit(
            ("spawn", worker_id, generation, entry, tuple(args))
        )
        self._trace(
            "bind",
            worker=worker_id,
            generation=generation,
            agent=channel.info.get("agent"),
            slot=channel.info.get("slot"),
        )
        return FramedEndpoint(channel, worker_id, generation)

    def _address_hint(self) -> str:
        if self.address is None:
            return f"{self.host}:{self.port}"
        return f"{self.address[0]}:{self.address[1]}"

    def reap(self, endpoint) -> None:
        endpoint.close()

    def shutdown(self, endpoints) -> None:
        for endpoint in endpoints:
            try:
                endpoint.send("stop")
            except (BrokenPipeError, OSError):
                pass
        # Give cooperative stops a moment to flush before closing.
        stop_deadline = time.monotonic() + 5.0
        for endpoint in endpoints:
            endpoint.poll(max(0.0, stop_deadline - time.monotonic()))
            endpoint.close()


def parse_address(address: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)`` with validation."""
    host, _, port = address.rpartition(":")
    if not host or not port:
        raise TransportError(
            f"expected HOST:PORT, got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise TransportError(
            f"port in {address!r} is not an integer"
        ) from None
