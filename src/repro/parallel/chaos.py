"""ChaosTransport: a fault plan's frame kinds, handed to the framed layer.

A plan's frame kinds — delay, drop, duplicate, corrupt, partition,
agent_crash — act on the frames of a framed transport (remote TCP or
the in-memory fake).  Nobody outside this package builds a
:class:`ChaosTransport`: the master and the pool take the plan as
``fault_plan=`` and wrap their transport through
:func:`with_frame_faults` when it holds frame kinds (its worker kinds
go to the workers' injectors).

Layering
--------

The faults apply inside the framed channel
(:class:`~repro.parallel.transport._FramedChannel`), where it meets
the wire, and every frame passes the channel's one dedup::

    worker -> bridge(stamp) -> wire -> [in faults] -> dedup -> master
    master -> stamp -> [out faults] -> wire -> bridge(dedup) -> worker

So an injected inbound duplicate exercises the very dedup that keeps a
report from being merged twice, and an outbound one the agent bridge's.
This wrapper only hands each incarnation's frame specs to the framed
transport's ``spawn``, which arms them on the channel before the worker
can send.

Fault ordinals count *sequenced data frames only*, per direction, per
worker incarnation — heartbeat traffic is unsequenced and invisible to
plans, so a plan addresses the same frame whether or not liveness
monitoring is enabled, and replays identically on the remote loopback
and in-memory backends.

No fault blocks the caller: delays in either direction ride a
``threading.Timer``.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FRAME_KINDS, FaultPlan
from repro.parallel.transport import (
    Transport,
    TransportError,
    _FramedTransport,
)


class ChaosTransport:
    """A framed transport whose spawns carry a plan's frame kinds.

    Only ``spawn`` differs from the wrapped transport's: it passes the
    incarnation's frame specs along.  Every other attribute is the
    wrapped transport's own, so master and pool drive the framed
    transport's own endpoints.  Only a framed transport has the frame
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
        self.inner = inner
        self.plan = plan

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def spawn(self, worker_id, generation, entry, args, timeout=None):
        return self.inner.spawn(
            worker_id, generation, entry, args, timeout=timeout,
            faults=self.plan.for_slave(worker_id, generation, FRAME_KINDS),
        )


def with_frame_faults(transport: Transport, plan: Optional[FaultPlan]):
    """``transport``, or — when ``plan`` holds frame kinds — a
    :class:`ChaosTransport` applying them through it.  Closing the
    wrapper closes ``transport``; whoever owns that decides whether to.
    """
    if plan is None or not plan.frame_kinds:
        return transport
    return ChaosTransport(transport, plan)
