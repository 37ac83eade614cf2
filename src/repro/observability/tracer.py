"""Low-overhead structured tracing: spans, counters, gauges, events.

The tracer is the introspection surface of the statistics pipeline
(warm-up → calibration → measurement → convergence): the engine, the
statistics core, and the parallel master all emit structured records
through one :class:`Tracer`, which writes them as JSON lines (one
object per line) to any file-like sink.

Design constraints, in priority order:

1. **Zero cost when disabled.**  Components hold ``tracer = None`` by
   default and guard every emission behind a single ``is not None``
   check; nothing in this module is imported on the hot path of an
   untraced run.
2. **Deterministic by default.**  Records are stamped with *simulated*
   time and a monotonic sequence counter owned by the tracer — never
   the wall clock.  Host time enters only through a ``clock`` callable
   injected at the boundary (CLI, parallel master); records then carry
   ``host_time``/``host_duration`` fields that determinism comparisons
   strip (see :func:`repro.observability.schema.strip_host_fields`).
3. **Tool-agnostic output.**  Each line is a flat JSON object with a
   fixed set of required keys (see :mod:`repro.observability.schema`);
   extra context rides in a nested ``fields`` object.

Record kinds:

``counter``
    A cumulative monotonically increasing quantity (events dispatched,
    observations accepted).  Rates (events/sec) are derived post-hoc
    from consecutive records, never computed inside the engine.
``gauge``
    A point-in-time level (queue depth, live half-width).
``event``
    A discrete occurrence (phase transition, dead slave, convergence).
``span``
    A timed region (master merge, calibration run).  Requires an
    injected host clock; duration lands in ``host_duration``.
"""

from __future__ import annotations

import io
import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Optional, Union


class TraceError(RuntimeError):
    """Raised for invalid tracer configuration or use."""


#: The record kinds a tracer can emit (mirrored by the schema module).
KINDS = ("counter", "gauge", "event", "span")


class Tracer:
    """JSON-lines trace writer with span/counter/gauge/event primitives.

    Parameters
    ----------
    sink:
        A file-like object with ``write(str)`` (e.g. an open text file,
        an ``io.StringIO``).  Use :meth:`to_path` to open a file and
        have :meth:`close` own it.
    clock:
        Optional zero-argument callable returning host seconds
        (``time.perf_counter`` injected at the boundary).  When set,
        every record gains a ``host_time`` field and :meth:`span`
        becomes available.  Leave ``None`` inside deterministic layers.
    """

    __slots__ = (
        "enabled", "_sink", "_clock", "_seq", "_owns_sink", "_summary",
        "_lock",
    )

    def __init__(self, sink, clock: Optional[Callable[[], float]] = None):
        if sink is None or not hasattr(sink, "write"):
            raise TraceError("tracer sink must be a file-like object")
        self.enabled = True
        self._sink = sink
        self._clock = clock
        self._seq = 0
        self._owns_sink = False
        #: (component, name) -> {kind, emitted, last} running aggregate,
        #: cheap enough to maintain inline and read back via summary().
        self._summary: Dict[tuple, dict] = {}
        #: Carrier threads (socket readers, the heartbeat, frame fault
        #: timers) emit too: a record's seq, its line and its summary
        #: entry are taken together, so lines stay in seq order.
        self._lock = threading.Lock()

    @classmethod
    def to_path(
        cls, path: Union[str, Path], clock: Optional[Callable[[], float]] = None
    ) -> "Tracer":
        """Open ``path`` for writing and return a tracer that owns it."""
        handle = Path(path).open("w")
        tracer = cls(handle, clock=clock)
        tracer._owns_sink = True
        return tracer

    @classmethod
    def to_memory(cls, clock: Optional[Callable[[], float]] = None) -> "Tracer":
        """An in-memory tracer (tests); read back via :meth:`lines`."""
        return cls(io.StringIO(), clock=clock)

    # -- emission -----------------------------------------------------------

    def emit(
        self,
        kind: str,
        name: str,
        component: str,
        sim_time: Optional[float] = None,
        value: Optional[float] = None,
        host_duration: Optional[float] = None,
        **fields,
    ) -> None:
        """Write one record.  Prefer the kind-specific helpers."""
        if not self.enabled:
            return
        if kind not in KINDS:
            raise TraceError(f"unknown record kind {kind!r}; expected {KINDS}")
        with self._lock:
            self._seq += 1
            record = {
                "seq": self._seq,
                "kind": kind,
                "name": name,
                "component": component,
                "sim_time": sim_time,
            }
            if value is not None:
                record["value"] = value
            if fields:
                record["fields"] = fields
            if host_duration is not None:
                record["host_duration"] = host_duration
            if self._clock is not None:
                record["host_time"] = self._clock()
            self._sink.write(json.dumps(record, default=_json_default) + "\n")
            entry = self._summary.setdefault(
                (component, name), {"kind": kind, "emitted": 0, "last": None}
            )
            entry["emitted"] += 1
            entry["last"] = value

    def counter(
        self,
        name: str,
        value: float,
        component: str,
        sim_time: Optional[float] = None,
        **fields,
    ) -> None:
        """Emit a cumulative counter sample."""
        self.emit("counter", name, component, sim_time, value, **fields)

    def gauge(
        self,
        name: str,
        value: float,
        component: str,
        sim_time: Optional[float] = None,
        **fields,
    ) -> None:
        """Emit a point-in-time level."""
        self.emit("gauge", name, component, sim_time, value, **fields)

    def event(
        self,
        name: str,
        component: str,
        sim_time: Optional[float] = None,
        **fields,
    ) -> None:
        """Emit a discrete occurrence."""
        self.emit("event", name, component, sim_time, None, **fields)

    @contextmanager
    def span(self, name: str, component: str, **fields):
        """Time a region against the injected host clock.

        Only available at the boundary (master, CLI): deterministic
        layers have no clock and must not measure durations.
        """
        if self._clock is None:
            raise TraceError(
                f"span {name!r} needs a host clock; inject one at the "
                "boundary (Tracer(..., clock=time.perf_counter))"
            )
        started = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - started
            self.emit(
                "span", name, component, None, None,
                host_duration=elapsed, **fields,
            )

    # -- reading back -------------------------------------------------------

    def summary(self) -> Dict[str, dict]:
        """Aggregate view: ``"component/name" -> {kind, emitted, last}``."""
        return {
            f"{component}/{name}": dict(entry)
            for (component, name), entry in sorted(self._summary.items())
        }

    @property
    def has_clock(self) -> bool:
        """True when a host clock was injected (spans are available)."""
        return self._clock is not None

    @property
    def records_emitted(self) -> int:
        """Total records written so far."""
        return self._seq

    def lines(self) -> list:
        """Decoded records (only for in-memory sinks; tests)."""
        if not isinstance(self._sink, io.StringIO):
            raise TraceError("lines() requires an in-memory tracer")
        return [
            json.loads(line)
            for line in self._sink.getvalue().splitlines()
            if line
        ]

    def flush(self) -> None:
        """Flush the underlying sink if it supports it."""
        flush = getattr(self._sink, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Disable the tracer and close an owned sink.  Idempotent."""
        if not self.enabled:
            return
        self.enabled = False
        self.flush()
        if self._owns_sink:
            self._sink.close()


def _json_default(obj):
    """Last-resort serializer: keep the trace writable, not perfect."""
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return repr(obj)
