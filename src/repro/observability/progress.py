"""Periodic convergence progress reporting.

A long experiment is silent between launch and convergence; the
reporter turns :meth:`Experiment.progress` snapshots (or the parallel
master's merged histograms) into short human-readable lines:

    [progress] response_time  measurement  62.5%  (12500/20000, lag 3)

Two usage modes share one formatter:

- **interactive** — pass a reporter to ``Experiment.run(progress=...)``;
  it is polled on the convergence-check cadence and throttles itself
  against a host clock (the reporter lives at the boundary, so reading
  the wall clock here is legitimate — the engine never does);
- **parallel master** — :class:`ParallelSimulation` calls
  :meth:`parallel_update` after each merge round with the merged
  histograms and targets.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Callable, Dict, Mapping, Optional

from repro.core.convergence import judge


def convergence_fractions(
    merged: Mapping[str, object], targets: Mapping[str, object]
) -> Dict[str, float]:
    """Master-side convergence fraction per metric from merged histograms.

    ``targets`` maps name -> MetricTargets; the fraction is the merged
    accepted count over the current Eq. 2-3 requirement, clamped to 1.
    An undefined requirement (early rounds) reports 0.
    """
    return {
        name: judge(merged[name], target).fraction_done or 0.0
        for name, target in targets.items()
    }


class ProgressReporter:
    """Throttled, stream-writing progress reporter.

    Parameters
    ----------
    stream:
        Where lines go (default ``sys.stderr``).
    min_interval:
        Minimum host seconds between reports when polled (interactive
        mode); explicit :meth:`update` / :meth:`parallel_update` calls
        are never throttled.
    clock:
        Host clock used purely for throttling (injectable for tests).
    """

    def __init__(
        self,
        stream=None,
        min_interval: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._clock = clock if clock is not None else time.monotonic
        self._last_report = -math.inf
        self.reports_written = 0

    # -- interactive mode ---------------------------------------------------

    def poll(self, experiment) -> bool:
        """Report if the throttle interval elapsed; returns True if it did."""
        now = self._clock()
        if now - self._last_report < self.min_interval:
            return False
        self._last_report = now
        self.update(experiment.progress())
        return True

    def update(self, progress: Mapping[str, Mapping]) -> None:
        """Render one Experiment.progress() snapshot."""
        for name, entry in progress.items():
            fraction = entry.get("fraction_done")
            percent = f"{100.0 * fraction:5.1f}%" if fraction is not None else "    -"
            lag = entry.get("lag")
            detail = f"{entry.get('accepted', 0)}/{_fmt(entry.get('required'))}"
            if lag is not None:
                detail += f", lag {lag}"
            self._write(
                f"[progress] {name}  {entry.get('phase', '?'):<12} "
                f"{percent}  ({detail})"
            )

    # -- parallel master mode -----------------------------------------------

    def parallel_update(
        self,
        round_number: int,
        merged: Mapping[str, object],
        targets: Mapping[str, object],
    ) -> None:
        """Render one master merge round."""
        fractions = convergence_fractions(merged, targets)
        for name, fraction in fractions.items():
            self._write(
                f"[progress] round {round_number}  {name}  "
                f"{100.0 * fraction:5.1f}%  "
                f"({merged[name].count} merged samples)"
            )

    def _write(self, line: str) -> None:
        self.stream.write(line + "\n")
        flush = getattr(self.stream, "flush", None)
        if flush is not None:
            flush()
        self.reports_written += 1


def _fmt(required) -> str:
    if required is None or required == math.inf:
        return "?"
    return str(int(required))
