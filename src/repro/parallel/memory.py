"""The in-memory transport: the remote frame pipeline without sockets.

:class:`InMemoryTransport` runs workers as daemon *threads* inside the
master process behind the very channel, endpoint and ``wait`` the
remote transport uses (``_FramedChannel`` / ``FramedEndpoint`` /
``_FramedTransport`` in :mod:`repro.parallel.transport`): sequence
stamping, the one master-side dedup, frame faults (armed by ``spawn``
before the worker thread starts), close reasons, per-direction
blackholes and the liveness stamp are that shared code, not a model of
it.  So the network-chaos and liveness machinery (frame faults,
heartbeat monitoring) can be exercised in fast, socket-free unit tests
with the exact schedule a loopback
:class:`~repro.parallel.transport.RemoteTransport` would see.

What this module adds is the carrier — what stands in for the agent
process and its TCP connection:

- an emulated agent bridge: worker -> master messages are
  sequence-stamped, master -> worker frames pass bridge-side dedup
  before reaching the worker's connection, so a duplicated command
  never runs twice;
- with ``heartbeat_interval`` set, a monitor thread plays the master's
  ping loop: a live, un-partitioned channel acks every interval (the
  bridge acks even while the worker is busy — no false positive on a
  slow worker), and a channel silent past ``interval * misses`` closes
  with reason ``"liveness timeout"``; a ``partition`` frame fault
  blackholes one direction *below* that layer — data and acks/pings
  alike — reproducing a half-open link only liveness monitoring can
  detect.

Workers run the real entry function — the one pipe loop,
``transport._serve_session``, around a master slave's or a pool
worker's session — against a Connection-like object, so digest parity
against the process/remote backends is testable end to end.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional

from repro.parallel.protocol import CAUSE_LIVENESS_TIMEOUT
from repro.parallel.transport import (
    FramedEndpoint,
    FrameSequencer,
    _FramedChannel,
    _FramedTransport,
)


class _WorkerConn:
    """The worker-thread side of one channel (Connection-like)."""

    def __init__(self, channel: "_MemoryChannel"):
        self._channel = channel
        self._cond = threading.Condition()
        self._items: Deque[object] = deque()
        self._closed = False

    def _ready(self) -> bool:
        return bool(self._items) or self._closed

    # -- master/bridge side --------------------------------------------------

    def deliver(self, message: object) -> None:
        with self._cond:
            if self._closed:
                return
            self._items.append(message)
            self._cond.notify_all()

    def shut(self) -> None:
        """Close the worker-facing end (EOF on the next recv)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- worker side (the Connection protocol entries use) -------------------

    def send(self, obj: object) -> None:
        self._channel.from_worker(obj)

    def recv(self) -> object:
        with self._cond:
            self._cond.wait_for(self._ready)
            if self._items:
                return self._items.popleft()
        raise EOFError("connection closed")

    def poll(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            return self._cond.wait_for(self._ready, timeout)

    def close(self) -> None:
        self._channel.teardown()


class _MemoryChannel(_FramedChannel):
    """One worker thread behind the emulated agent bridge.

    The carrier half of the channel: the bridge's own sequencers
    (out-stamping of worker sends, in-dedup of master commands) and the
    worker's connection.  Inbox, dedup, close reasons and blackhole
    flags are the shared :class:`_FramedChannel`.
    """

    closed_text = "in-memory worker {} channel is closed"

    def __init__(self, cond: threading.Condition, worker_id: int,
                 generation: int):
        super().__init__(cond)
        self.worker_id = worker_id
        self.generation = generation
        self.bridge_out = FrameSequencer()      # bridge stamps worker sends
        self.bridge_in = FrameSequencer()       # bridge dedups commands
        self.conn = _WorkerConn(self)
        self.thread: Optional[threading.Thread] = None

    def transmit(self, frame: object) -> None:
        """One master->worker frame through the emulated bridge."""
        if self.blackhole_out:
            return
        accepted, message = self.bridge_in.accept(frame)
        if accepted:
            self.conn.deliver(message)

    def from_worker(self, obj: object) -> None:
        """One worker send, bridge-stamped, onto the master inbox."""
        frame = self.bridge_out.stamp(obj)
        with self.cond:
            if not self.blackhole_in:
                self.push(frame)

    def teardown(self) -> None:
        self.mark_closed()
        self.conn.shut()

    def describe(self) -> dict:
        return {"transport": "memory"}


class InMemoryTransport(_FramedTransport):
    """Thread-backed fake of the remote transport's frame pipeline.

    Parameters
    ----------
    heartbeat_interval / heartbeat_misses:
        Same contract as :class:`~repro.parallel.transport.RemoteTransport`:
        when the interval is set, a monitor thread acks every live
        un-partitioned channel each interval and closes a channel
        silent past ``interval * misses`` with reason
        ``"liveness timeout"``.
    """

    kind = "memory"
    elastic = False

    def __init__(
        self,
        heartbeat_interval: Optional[float] = None,
        heartbeat_misses: int = 3,
    ):
        super().__init__(heartbeat_interval, heartbeat_misses)
        self._channels: List[_MemoryChannel] = []
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self.heartbeat_interval is not None and self._monitor is None:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-memory-heartbeat",
                daemon=True,
            )
            self._monitor.start()

    def _monitor_loop(self) -> None:
        """The master's heartbeat loop, played against fake bridges."""
        window = self.heartbeat_interval * self.heartbeat_misses
        while not self._stopping.wait(self.heartbeat_interval):
            now = time.monotonic()
            with self._cond:
                channels = [c for c in self._channels if not c.closed]
            for channel in channels:
                if not channel.blackhole_out and not channel.blackhole_in:
                    # Ping delivered and ack returned: the emulated
                    # bridge answers whether or not the worker thread
                    # is busy, exactly like the real agent bridge — so
                    # an ack-capable channel can never time out, even
                    # when this thread's own tick arrives late.
                    channel.last_ack = now
                elif now - channel.last_ack > window:
                    channel.conn.shut()
                    channel.mark_closed(CAUSE_LIVENESS_TIMEOUT)
                    self._trace(
                        "liveness_timeout",
                        worker=channel.worker_id,
                        generation=channel.generation,
                        silent_for=now - channel.last_ack,
                    )

    # -- Transport surface ---------------------------------------------------

    def spawn(self, worker_id, generation, entry, args, timeout=None,
              faults=()):
        self.start()
        channel = _MemoryChannel(self._cond, worker_id, generation)
        channel.arm(faults, self._trace, worker_id, generation)

        def run_worker():
            try:
                entry(channel.conn, *args)
            except EOFError:
                pass
            finally:
                channel.mark_closed()

        thread = threading.Thread(
            target=run_worker,
            name=f"repro-memory-worker-{worker_id}.{generation}",
            daemon=True,
        )
        channel.thread = thread
        with self._cond:
            self._channels.append(channel)
        thread.start()
        self._trace(
            "spawn", backend="memory", worker=worker_id,
            generation=generation,
        )
        return FramedEndpoint(channel, worker_id, generation)

    def capacity(self) -> int:
        # Threads are always spawnable, like forks on the local
        # transport.
        return 1

    def reap(self, endpoint) -> None:
        endpoint.close()
        thread = endpoint.channel.thread
        if thread is not None:
            thread.join(timeout=5.0)

    def shutdown(self, endpoints) -> None:
        for endpoint in endpoints:
            try:
                endpoint.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for endpoint in endpoints:
            thread = endpoint.channel.thread
            if thread is not None:
                thread.join(timeout=10.0)
            endpoint.close()

    def close(self) -> None:
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._cond:
            channels = list(self._channels)
            self._channels.clear()
        for channel in channels:
            channel.teardown()
