"""ChaosTransport: a fault plan's frame kinds, applied at the frame boundary.

Wraps a framed transport (remote TCP or the in-memory fake) and applies
the frame kinds of a :class:`~repro.faults.plan.FaultPlan` to the frames
crossing it — delaying, dropping, duplicating, corrupting, partitioning,
or tearing down connections exactly where the plan says, and nowhere
else.  Nobody outside this package builds one: the master and the pool
take the plan as ``fault_plan=`` and wrap their transport through
:func:`with_frame_faults` when it holds frame kinds (its worker kinds
go to the workers' injectors).

Layering
--------

The chaos endpoint sits *between* the wire and the master's dedup::

    worker -> bridge(stamp) -> wire -> [chaos faults] -> dedup -> master
    master -> stamp -> [chaos faults] -> wire -> bridge(dedup) -> worker

On the inbound path the wrapped endpoint is switched to *raw delivery*
(``set_raw_delivery(True)``): the chaos layer receives stamped frames
before deduplication, applies the scheduled fault, then runs its own
:class:`~repro.parallel.transport.FrameSequencer` — so an injected
duplicate genuinely exercises the dedup that protects digests from a
double-merged report.  On the outbound path ``stamp``/``send_frame``
are split for the same reason: a duplicate sends the *same* stamped
frame twice and the agent bridge must discard the copy.

Fault ordinals count *sequenced data frames only*, per direction, per
worker incarnation — heartbeat traffic is unsequenced and invisible to
plans, so a plan addresses the same frame whether or not liveness
monitoring is enabled, and replays identically on the remote loopback
and in-memory backends.

No fault blocks the caller: inbound delays are due-time holds released
by ``poll``/``wait``/``recv``; outbound delays ride a ``threading.Timer``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.faults.plan import FRAME_KINDS, FaultPlan, FaultSpec
from repro.parallel.transport import (
    CLOSE_CORRUPT,
    FrameError,
    FrameSequencer,
    Transport,
    TransportError,
    WorkerEndpoint,
    _FramedTransport,
    is_sequenced,
)


class ChaosEndpoint(WorkerEndpoint):
    """One worker endpoint with scheduled faults on its frame stream."""

    def __init__(self, inner: WorkerEndpoint,
                 specs: Tuple[FaultSpec, ...], trace):
        self.inner = inner
        self.worker_id = inner.worker_id
        self.generation = inner.generation
        self._faults = {
            (spec.direction, spec.round): spec for spec in specs
        }
        self._out_ordinal = 0
        self._in_ordinal = 0
        self._sequencer = FrameSequencer()
        #: Post-fault, post-dedup messages deliverable right now.  The
        #: readiness surface (poll/wait) reflects THIS queue, never the
        #: raw inbox — a duplicate that dedup will discard must not make
        #: the endpoint look ready (the master would block on recv).
        self._ready: Deque[object] = deque()
        #: Delay-in holds: ``(due_monotonic, raw_frame)`` in arrival order.
        self._held: List[Tuple[float, object]] = []
        #: Terminal inbound error (EOF family or injected FrameError),
        #: raised by recv once the ready queue drains.
        self._error: Optional[BaseException] = None
        self._trace = trace

    # -- outbound ------------------------------------------------------------

    def send(self, message: object) -> None:
        frame = self.inner.stamp(message)
        self._out_ordinal += 1
        spec = self._faults.get(("out", self._out_ordinal))
        if spec is None:
            self.inner.send_frame(frame)
            return
        self._trace(
            "net_fault", fault=spec.kind, direction="out",
            worker=self.worker_id, generation=self.generation,
            round=self._out_ordinal,
        )
        if spec.kind == "delay":
            timer = threading.Timer(
                spec.delay, self._late_send, args=(frame,)
            )
            timer.daemon = True
            timer.start()
        elif spec.kind == "drop":
            pass  # the sequence number is consumed; the frame vanishes
        elif spec.kind == "duplicate":
            self.inner.send_frame(frame)
            self.inner.send_frame(frame)
        elif spec.kind == "partition":
            self.inner.set_partition("out")
        elif spec.kind == "agent_crash":
            self.inner.inject_close(None)
            raise BrokenPipeError(
                f"worker {self.worker_id}: injected agent crash"
            )
        else:  # pragma: no cover - spec validation pins directions
            raise TransportError(
                f"net fault kind {spec.kind!r} cannot apply outbound"
            )

    def _late_send(self, frame: object) -> None:
        try:
            self.inner.send_frame(frame)
        except (BrokenPipeError, TransportError, OSError):
            pass  # the worker died while the frame was in flight

    # -- inbound -------------------------------------------------------------

    def _pump(self) -> None:
        """Drain raw frames from the wire, applying scheduled faults."""
        while self._error is None:
            if not self.inner.poll(0):
                return
            try:
                frame = self.inner.recv_raw()
            except (EOFError, TransportError, ConnectionError, OSError) as error:
                self._error = error
                return
            if is_sequenced(frame):
                self._in_ordinal += 1
                spec = self._faults.get(("in", self._in_ordinal))
            else:
                spec = None
            if spec is None:
                self._admit(frame)
                continue
            self._trace(
                "net_fault", fault=spec.kind, direction="in",
                worker=self.worker_id, generation=self.generation,
                round=self._in_ordinal,
            )
            if spec.kind == "delay":
                self._held.append(
                    (time.monotonic() + spec.delay, frame)
                )
            elif spec.kind == "drop":
                pass
            elif spec.kind == "duplicate":
                self._admit(frame)
                self._admit(frame)
            elif spec.kind == "corrupt":
                self._error = FrameError(
                    f"injected corrupt frame from worker "
                    f"{self.worker_id}",
                    worker_id=self.worker_id,
                )
                self.inner.inject_close(CLOSE_CORRUPT)
            elif spec.kind == "partition":
                self.inner.set_partition("in")
            else:  # pragma: no cover - spec validation pins directions
                raise TransportError(
                    f"net fault kind {spec.kind!r} cannot apply inbound"
                )

    def _admit(self, frame: object) -> None:
        accepted, message = self._sequencer.accept(frame)
        if accepted:
            self._ready.append(message)

    def _release_due(self) -> None:
        if not self._held:
            return
        now = time.monotonic()
        still_held = []
        for due, frame in self._held:
            if due <= now:
                self._admit(frame)
            else:
                still_held.append((due, frame))
        self._held = still_held

    def _next_due(self) -> Optional[float]:
        if not self._held:
            return None
        return min(due for due, _ in self._held)

    def _ready_now(self) -> bool:
        """Deliverable message, terminal error, or closed wire."""
        return bool(
            self._ready
            or self._error is not None
            or self.inner.poll(0)  # post-pump: only true when closed
        )

    def recv(self) -> object:
        self.poll(None)  # returns once a message or the error is in
        if self._ready:
            return self._ready.popleft()
        raise self._error

    def poll(self, timeout: Optional[float] = None) -> bool:
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            self._pump()
            self._release_due()
            if self._ready or self._error is not None:
                return True
            slices = []
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                slices.append(remaining)
            due = self._next_due()
            if due is not None:
                slices.append(max(due - time.monotonic(), 0.001))
            self.inner.poll(min(slices) if slices else None)

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> dict:
        described = self.inner.describe()
        described["chaos"] = sorted(
            f"{direction}:{round_number}:{spec.kind}"
            for (direction, round_number), spec in self._faults.items()
        )
        return described


class ChaosTransport(Transport):
    """A transport decorator applying a plan's frame kinds.

    Every worker gets a :class:`ChaosEndpoint` (raw delivery +
    chaos-side dedup), so the dedup path under test is identical for
    faulted and clean workers.  Only a framed transport has the frame
    layer the faults act on: any other is refused at construction, as
    silently skipping scheduled faults would let a chaos run claim
    coverage it never had.
    """

    def __init__(self, inner: Transport, plan: FaultPlan):
        if not isinstance(inner, _FramedTransport):
            raise TransportError(
                f"frame faults ({', '.join(plan.frame_kinds)}) need the "
                "remote or memory transport; transport "
                f"{inner.kind!r} has no frame layer"
            )
        super().__init__()
        self.inner = inner
        self.plan = plan

    @property
    def kind(self) -> str:  # type: ignore[override]
        return f"chaos+{self.inner.kind}"

    @property
    def elastic(self) -> bool:  # type: ignore[override]
        return self.inner.elastic

    def attach_tracer(self, tracer) -> None:
        self._tracer = tracer
        self.inner.attach_tracer(tracer)

    def start(self) -> None:
        self.inner.start()

    def spawn(self, worker_id, generation, entry, args, timeout=None):
        endpoint = self.inner.spawn(
            worker_id, generation, entry, args, timeout=timeout
        )
        endpoint.set_raw_delivery(True)
        specs = self.plan.for_slave(worker_id, generation, FRAME_KINDS)
        return ChaosEndpoint(endpoint, specs, self._trace)

    def wait(self, endpoints, timeout=None):
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            ready = []
            for endpoint in endpoints:
                endpoint._pump()
                endpoint._release_due()
                if endpoint._ready_now():
                    ready.append(endpoint)
            if ready:
                return ready
            slices = []
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                slices.append(remaining)
            dues = [endpoint._next_due() for endpoint in endpoints]
            dues = [due for due in dues if due is not None]
            if dues:
                slices.append(max(min(dues) - time.monotonic(), 0.001))
            self.inner.wait(
                [endpoint.inner for endpoint in endpoints],
                timeout=min(slices) if slices else None,
            )

    def capacity(self) -> int:
        return self.inner.capacity()

    def wait_for_capacity(self, timeout: Optional[float] = None) -> bool:
        return self.inner.wait_for_capacity(timeout)

    def reap(self, endpoint) -> None:
        self.inner.reap(endpoint.inner)

    def shutdown(self, endpoints) -> None:
        self.inner.shutdown([endpoint.inner for endpoint in endpoints])

    def close(self) -> None:
        self.inner.close()


def with_frame_faults(transport: Transport, plan: Optional[FaultPlan]):
    """``transport``, or — when ``plan`` holds frame kinds — a
    :class:`ChaosTransport` applying them around it.  Closing the
    wrapper closes ``transport``; whoever owns that decides whether to.
    """
    if plan is None or not plan.frame_kinds:
        return transport
    return ChaosTransport(transport, plan)
