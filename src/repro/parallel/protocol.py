"""Wire-format objects exchanged between master and slaves.

Everything here is plain data (picklable, no live simulation state): the
master broadcasts bin schemes + metric targets; slaves report their
measurement progress each round as **deltas** — only the bin counts and
moment sums accumulated *since the previous report*.  The master folds
each delta into persistent merged histograms
(:meth:`Histogram.merge_payload`), making per-round master work
proportional to the round, not the run.  ``min_seen``/``max_seen`` are
not delta-able and always travel as absolute running extrema; their
min/max merge is idempotent, so repeating them every round is harmless.

The merged integer bin counts equal what re-summing full histograms
would give; the float moment sums telescope (``Σ (sᵢ - sᵢ₋₁) = s_n``)
up to rounding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.histogram import BinScheme, HistogramError, _payload_counts


class ParallelError(RuntimeError):
    """Raised for parallel-protocol failures."""


# -- cause codes ----------------------------------------------------------
#
# Every slave death is attributed with one of these machine-readable
# cause codes; they appear in trace records, on
# ``ParallelResult.failure_causes``, and in checkpoints.  Free-form
# detail (the OS error text, the fault spec) is appended after ": ".

#: The slave's pipe closed or reset before its report arrived.
CAUSE_PIPE_CLOSED = "pipe closed"
#: Sending the round's chunk command failed (slave already gone).
CAUSE_SEND_FAILED = "send failed"
#: No report within the round deadline; the pipe is still open (a hung,
#: wedged, or silently dropped slave).
CAUSE_HEARTBEAT_TIMEOUT = "heartbeat timeout"
#: The report arrived but its histogram payload failed validation.
CAUSE_CORRUPT_PAYLOAD = "corrupt payload"
#: A FaultPlan injection surfaced directly (serial backend).
CAUSE_INJECTED = "injected fault"
#: An elastic-transport worker's connection dropped — its host agent
#: left the fleet (or died); the slot returns to the join queue.
CAUSE_WORKER_LEFT = "worker left"
#: Heartbeat monitoring declared the connection dead: no frame and no
#: heartbeat ack within ``heartbeat_interval * heartbeat_misses``
#: seconds — the half-open-partition signature (a clean death closes
#: the socket and surfaces as ``pipe closed`` instead).
CAUSE_LIVENESS_TIMEOUT = "liveness timeout"
#: A wire frame from the worker failed to decode (corrupt length
#: prefix, truncation, or undecodable pickle).
CAUSE_CORRUPT_FRAME = "corrupt frame"
#: A SupervisionPolicy aborted the run: the fleet fell below
#: ``min_workers``.
CAUSE_FLEET_EXHAUSTED = "fleet below minimum"
#: A SupervisionPolicy aborted the run: the overall deadline passed.
CAUSE_DEADLINE_EXCEEDED = "deadline exceeded"


def validate_report_payload(
    payload: dict, scheme: Tuple[float, float, int]
) -> Optional[str]:
    """Why one reported histogram payload must not be merged, or None.

    The master calls this *before* folding a report so that a corrupt
    payload is attributed to its slave (cause ``corrupt payload``) and
    excluded, instead of surfacing later as an unattributed
    :class:`~repro.core.histogram.HistogramError` mid-merge.  Past the
    scheme identity it runs ``Histogram.merge_payload``'s own
    reject-before-mutate check: counts length, int masses, non-negative
    masses and the count invariant.
    """
    try:
        if tuple(payload["scheme"]) != tuple(scheme):
            return f"scheme mismatch: {payload['scheme']} vs {scheme}"
        _payload_counts(payload, scheme[2])
    except HistogramError as error:
        return str(error)
    except (KeyError, TypeError, ValueError) as error:
        return f"malformed payload: {error!r}"
    return None


@dataclass
class SlaveReport:
    """One measurement-round report from a slave.

    ``histograms`` maps metric name to a delta payload: only the
    counts/moments accumulated since the previous report (see
    :func:`histogram_delta`).  The scalar progress counters
    (``events_processed``, ``total_accepted``, ``sim_time``) are always
    absolute.
    """

    slave_id: int
    histograms: Dict[str, dict]  # name -> histogram_delta() payload
    events_processed: int
    sim_time: float
    total_accepted: int
    lags: Dict[str, Optional[int]] = field(default_factory=dict)
    #: Cumulative determinism digest (repro.analysis.sanitizer
    #: SanitizerDigest) when the slave runs sanitized, else None.
    digest: Optional[object] = None


def histogram_delta(current: dict, previous: Optional[dict]) -> dict:
    """Payload holding only what ``current`` accrued beyond ``previous``.

    With no ``previous`` (first report) the delta is the full payload.
    Extrema stay absolute — see the module docstring.
    """
    if previous is None:
        return dict(current)
    if current["scheme"] != previous["scheme"]:
        raise ParallelError(
            f"scheme changed between reports: {previous['scheme']} "
            f"-> {current['scheme']}"
        )
    return {
        "scheme": current["scheme"],
        "counts": [
            now - before
            for now, before in zip(current["counts"], previous["counts"])
        ],
        "underflow": current["underflow"] - previous["underflow"],
        "overflow": current["overflow"] - previous["overflow"],
        "count": current["count"] - previous["count"],
        "sum": current["sum"] - previous["sum"],
        "sum_sq": current["sum_sq"] - previous["sum_sq"],
        "min_seen": current["min_seen"],
        "max_seen": current["max_seen"],
    }


def payload_digest(payload: dict) -> str:
    """Short stable digest of one histogram payload.

    Canonical-JSON + BLAKE2: two payloads digest equal iff their bin
    counts, moments, and extrema are identical — the "byte-identical
    merged histograms" check the checkpoint/resume contract is verified
    against (an interrupted+resumed run must digest equal to an
    uninterrupted one).
    """
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


class DeltaTracker:
    """Slave-side bookkeeping that turns full payloads into deltas.

    One per slave; it remembers the last payload shipped per metric so
    each report carries only the new counts.
    """

    def __init__(self) -> None:
        self._previous: Dict[str, dict] = {}

    def delta_histograms(self, histograms: Dict[str, dict]) -> Dict[str, dict]:
        """Compute per-metric deltas and advance the snapshots."""
        deltas = {}
        for name, payload in histograms.items():
            deltas[name] = histogram_delta(payload, self._previous.get(name))
            self._previous[name] = payload
        return deltas


def scheme_payload(scheme: BinScheme) -> Tuple[float, float, int]:
    """BinScheme -> plain tuple for broadcast."""
    return (scheme.low, scheme.high, scheme.bins)


def scheme_from_payload(payload: Tuple[float, float, int]) -> BinScheme:
    """Inverse of :func:`scheme_payload`."""
    low, high, bins = payload
    return BinScheme(low=low, high=high, bins=bins)
