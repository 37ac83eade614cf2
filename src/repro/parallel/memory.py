"""The in-memory transport: the remote frame pipeline without sockets.

:class:`InMemoryTransport` runs workers as daemon *threads* inside the
master process behind the very channel, endpoint, ``wait`` and
heartbeat rule the remote transport uses (``_FramedChannel`` /
``FramedEndpoint`` / ``_FramedTransport`` in
:mod:`repro.parallel.transport`), and behind the agent's own bridge
(``transport._bridge_frame``): sequence stamping, both dedups, frame
faults (armed by ``spawn`` before the worker thread starts), close
reasons, per-direction blackholes, heartbeat acks and the liveness rule
are that shared code, not a model of it.  So the network-chaos and
liveness machinery can be exercised in fast, socket-free unit tests
with the schedule a loopback
:class:`~repro.parallel.transport.RemoteTransport` would see.

This module only carries the bytes, in place of the agent process and
its TCP connection: a master frame reaches the bridge at once, and the
bridge's reply (a heartbeat ack) or the worker's stamped send reaches
the channel's inbound path at once.  So a live, un-partitioned channel
answers every ping in the tick that sends it, busy worker or not, and
only a ``partition`` frame fault — which blackholes one direction,
data and pings/acks alike — leaves a channel silent until liveness
closes it.  With ``heartbeat_interval`` set, the shared heartbeat
thread of ``_FramedTransport`` applies the rule every interval; it
reads the transport clock.

Workers run the real entry function — the one pipe loop,
``transport._serve_session``, around a master slave's or a pool
worker's session — against a Connection-like object, so digest parity
against the process/remote backends is testable end to end.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Optional

from repro.parallel.transport import (
    FramedEndpoint,
    FrameSequencer,
    _bridge_frame,
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
    """One worker thread behind the agent's bridge, without a socket.

    The carrier half of the channel: the bridge's sequencer (stamping
    worker sends, dedup of master commands) and the worker's
    connection.  Inbox, dedup, liveness stamp, close reasons and
    blackhole flags are the shared :class:`_FramedChannel`.
    """

    closed_text = "in-memory worker {} channel is closed"

    def __init__(self, transport: "InMemoryTransport"):
        super().__init__(transport)
        self.bridge = FrameSequencer()
        self.conn = _WorkerConn(self)
        self.thread: Optional[threading.Thread] = None

    def transmit(self, frame: object) -> None:
        """One master->worker frame through the bridge; a ping's ack
        comes straight back."""
        if self.blackhole_out:
            return
        deliver, message, reply = _bridge_frame(self.bridge, frame)
        if reply is not None:
            self.receive(reply)
        elif deliver:
            self.conn.deliver(message)

    def from_worker(self, obj: object) -> None:
        """One worker send, bridge-stamped, onto the master's side."""
        self.receive(self.bridge.stamp(obj))

    def teardown(self) -> None:
        self.mark_closed()
        self.conn.shut()

    def describe(self) -> dict:
        return {"transport": "memory"}


class InMemoryTransport(_FramedTransport):
    """Thread-backed carrier of the remote transport's frame pipeline.

    Takes the ``heartbeat_interval`` / ``heartbeat_misses`` of
    :class:`~repro.parallel.transport.RemoteTransport`, with the same
    contract.
    """

    kind = "memory"
    elastic = False

    # -- Transport surface ---------------------------------------------------

    def spawn(self, worker_id, generation, entry, args, timeout=None,
              faults=()):
        self.start()
        channel = _MemoryChannel(self)
        channel.arm(faults, self._trace, worker_id, generation)

        def run_worker():
            try:
                entry(channel.conn, *args)
            except (EOFError, SystemExit):
                # A scheduled kill ends this thread, not the master.
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
