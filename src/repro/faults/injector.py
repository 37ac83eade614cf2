"""FaultInjector: executes a fault plan's worker kinds inside the worker loop.

The injector is the *only* piece of the fault subsystem that lives on
the worker side of the protocol — the master's slave session and the
pool's worker loop both run their faults through it.  It is constructed
from the picklable per-incarnation sub-plan
(:meth:`repro.faults.plan.FaultPlan.for_slave`) and consulted at three
points in every round (for a pool worker: every configure):

1. :meth:`on_chunk_start` — before the chunk runs (``kill``/``pre_run``
   and ``hang`` fire here);
2. :meth:`filter_report` — between building and sending the report
   (``kill``/``pre_report``, ``drop_report`` and ``corrupt_payload``
   fire here; the returned report may be ``None`` or mangled);
3. :meth:`after_send` — immediately after a successful send
   (``kill``/``post_report`` fires here).

There is one execution mode.  ``kill`` raises
``SystemExit(KILL_EXIT_STATUS)``, which ends only the worker: a worker
process exits with that status, an in-memory worker thread ends, and
the serial backend's inline endpoint catches it as the death it
models.  ``hang`` calls ``sleeper`` (default ``time.sleep``: silent
with the pipe held open, exercising the master's recv deadline); a
host that cannot afford to sleep — the inline transport, unit tests —
passes its own, and the schedule logic never learns which it got.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro.faults.plan import FaultSpec

#: Exit status used by injected kills, distinct from crash exit codes so
#: post-mortem triage can tell a scheduled chaos kill from a real bug.
KILL_EXIT_STATUS = 86


def corrupt_payload(payload: dict) -> dict:
    """Deterministically mangle one histogram payload.

    The mangled form violates the count invariant (``count`` no longer
    equals bins + underflow + overflow) *and* truncates the counts list,
    so both of the master's pre-merge validators can catch it — matching
    the two real-world corruption shapes: bit flips in scalars and
    short reads/truncated frames.
    """
    mangled = dict(payload)
    mangled["count"] = payload["count"] + 1_000_003
    if payload["counts"]:
        mangled["counts"] = list(payload["counts"])[:-1]
    return mangled


def corrupt_report(report):
    """Mangle every metric payload of a
    :class:`~repro.parallel.protocol.SlaveReport` in place of the clean
    ones, so the master's validator attributes the failure correctly."""
    report.histograms = {
        name: corrupt_payload(payload)
        for name, payload in report.histograms.items()
    }
    return report


class FaultInjector:
    """Executes one slave incarnation's scheduled faults.

    Parameters
    ----------
    specs:
        The picklable sub-plan for this ``(slave_id, generation)``.
    sleeper:
        What ``hang`` calls: defaults to ``time.sleep`` (see module
        docstring).  ``kill`` always raises ``SystemExit``.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), sleeper=time.sleep):
        self._specs = tuple(specs)
        self._sleep = sleeper

    def _find(self, round_number: int, kind: str,
              phase: Optional[str] = None) -> Optional[FaultSpec]:
        for spec in self._specs:
            if spec.round != round_number or spec.kind != kind:
                continue
            if phase is not None and spec.phase != phase:
                continue
            return spec
        return None

    def _kill_at(self, round_number: int, phase: str) -> None:
        if self._find(round_number, "kill", phase=phase) is not None:
            raise SystemExit(KILL_EXIT_STATUS)

    # -- hooks ---------------------------------------------------------------

    def on_chunk_start(self, round_number: int) -> None:
        """Pre-run hook: ``kill``/``pre_run`` and ``hang`` fire here."""
        self._kill_at(round_number, "pre_run")
        spec = self._find(round_number, "hang")
        if spec is not None:
            # Stay silent with the pipe open: the master's recv deadline
            # must fire.  The sleep bounds the orphan's lifetime if the
            # master dies too.
            self._sleep(spec.delay)

    def filter_report(
        self, round_number: int, report, corrupt=corrupt_report
    ):
        """Pre-send hook: may kill, drop (return None), or corrupt.

        ``corrupt`` is what a scheduled ``corrupt_payload`` does to
        whatever the host reports: :func:`corrupt_report` for the
        master's :class:`~repro.parallel.protocol.SlaveReport`, the
        pool's own mangler for a job result.
        """
        self._kill_at(round_number, "pre_report")
        if self._find(round_number, "drop_report") is not None:
            return None
        if self._find(round_number, "corrupt_payload") is not None:
            return corrupt(report)
        return report

    def after_send(self, round_number: int) -> None:
        """Post-send hook: ``kill``/``post_report`` fires here.

        The report is already on the wire, so the master merges it and
        only learns of the death when the *next* round's send fails.
        """
        self._kill_at(round_number, "post_report")
