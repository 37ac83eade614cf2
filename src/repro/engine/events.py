"""Event and event-queue primitives.

The queue is a binary heap with lazy deletion: cancelling an event marks
it dead and it is skipped on pop.  Lazy deletion keeps cancellation O(1),
which matters because speed-rescaling servers (power capping at every
one-second epoch across thousands of servers, Section 4.1) cancel and
re-schedule completion events constantly.

Hot-path design: an event is a plain five-slot list, **not** a class
instance::

    [time, seq, callback, label, state]

with ``state`` one of :data:`PENDING` / :data:`CANCELLED` / :data:`FIRED`
(index constants :data:`EV_TIME` .. :data:`EV_STATE` below).  Building a
list display costs ~45 ns versus ~250 ns for an object with ``__slots__``
— at two schedules per simulated task that difference alone is worth
>10% of total throughput.  The record doubles as the heap entry: lists
compare elementwise, so heap sifts order by ``(time, seq)`` at C level
and never reach the callback (``seq`` is unique).  The record is also the
cancellation handle returned to callers, who treat it as opaque.

Because lazy deletion leaves cancelled entries buried in the heap, a
cancel-heavy workload would otherwise inflate the heap without bound.
When dead entries exceed half the heap (and the heap is big enough to
matter), the queue compacts: it drops dead entries and re-heapifies —
in place, because a running event loop holds a direct reference to the
heap list.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional

#: Indices into an event record.
EV_TIME, EV_SEQ, EV_CALLBACK, EV_LABEL, EV_STATE = range(5)

#: Event states.
PENDING, CANCELLED, FIRED = 0, 1, 2

#: Type alias for annotations: an event record (5-slot list, layout above).
Event = List


class SimulationError(RuntimeError):
    """Raised for impossible simulation states (time travel, dead events)."""


def describe_event(event: Event) -> str:
    """Human-readable rendering of an event record (debugging aid)."""
    state = ("pending", "cancelled", "fired")[event[EV_STATE]]
    return f"Event({event[EV_LABEL]!r} @ {event[EV_TIME]:.6g}, {state})"


class EventQueue:
    """Min-heap of event records with O(1) cancellation."""

    #: Heaps smaller than this are never compacted (rebuild overhead
    #: would exceed the skip cost of the few dead entries).
    COMPACT_MIN = 512

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()
        self._dead = 0  # cancelled entries still buried in the heap

    def __len__(self) -> int:
        """Number of live (non-cancelled) events.

        Derived rather than maintained, so schedule/pop touch no counter
        on the hot path.
        """
        return len(self._heap) - self._dead

    def schedule(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Insert an event; returns a handle usable with :meth:`cancel`."""
        event = [time, next(self._counter), callback, label, PENDING]
        heappush(self._heap, event)
        return event

    def cancel(self, event: Event) -> None:
        """Mark an event dead; it will be skipped when reached."""
        state = event[EV_STATE]
        if state == CANCELLED:
            raise SimulationError(
                f"event already cancelled: {describe_event(event)}"
            )
        if state == FIRED:
            raise SimulationError(
                f"cannot cancel an already-fired event: {describe_event(event)}"
            )
        event[EV_STATE] = CANCELLED
        self._dead += 1
        heap = self._heap
        if self._dead * 2 > len(heap) and len(heap) >= self.COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries and rebuild the heap in O(live).

        In place (slice assignment): the running event loop holds a direct
        reference to the heap list, which must stay valid across a
        compaction triggered from inside a callback.
        """
        self._heap[:] = [
            event for event in self._heap if event[EV_STATE] != CANCELLED
        ]
        heapify(self._heap)
        self._dead = 0

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)
            if event[EV_STATE] == PENDING:
                event[EV_STATE] = FIRED
                return event
            self._dead -= 1
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        heap = self._heap
        while heap and heap[0][EV_STATE] == CANCELLED:
            heappop(heap)
            self._dead -= 1
        return heap[0][EV_TIME] if heap else None
