"""ExperimentTelemetry: the summary object attached to results.

Where the trace file is the full chronological record, telemetry is the
end-of-run digest: one JSON-safe object answering "what did the
convergence pipeline actually do" — per-metric phases, lags (and
whether the runs-up test chose them conclusively), sample-size
requirements, and (for parallel runs) per-slave progress and degradation
flags.

It is built once after the run from live objects, so it costs nothing
during simulation and exists even when no trace file was requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


#: The keys of an ``Experiment.progress()`` entry that telemetry keeps
#: as they are; every other key is an achieved relative half-width.
_PROGRESS_KEYS = ("phase", "observed", "accepted", "required", "lag",
                  "fraction_done")


def _json_number(value: float):
    """inf/nan are not JSON; encode them as strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


@dataclass
class ExperimentTelemetry:
    """End-of-run introspection summary for one experiment."""

    events_processed: int = 0
    sim_time: float = 0.0
    #: Per-metric pipeline state: phase, lag + how it was chosen,
    #: accepted/required counts, convergence checks performed.
    metrics: Dict[str, dict] = field(default_factory=dict)
    #: Tracer aggregate ("component/name" -> {kind, emitted, last});
    #: empty when the run was untraced.
    trace: Dict[str, dict] = field(default_factory=dict)
    #: Parallel-run extras (rounds, per-slave events, degradation).
    parallel: Optional[dict] = None

    @classmethod
    def from_experiment(cls, experiment, tracer=None) -> "ExperimentTelemetry":
        """Digest a finished (or in-flight) Experiment."""
        simulation = experiment.simulation
        telemetry = cls(
            events_processed=simulation.events_processed,
            sim_time=simulation.now,
        )
        for name, entry in experiment.progress().items():
            statistic = experiment.stats[name]
            metric = telemetry.metrics[name] = {
                key if key in _PROGRESS_KEYS else f"halfwidth_{key}": value
                for key, value in entry.items()
            }
            metric["required"] = _json_number(metric["required"])
            metric["convergence_checks"] = statistic.convergence_checks
            selection = statistic.lag_selection
            if selection is not None:
                metric["lag_conclusive"] = selection.conclusive
                metric["lag_reason"] = selection.reason
        if tracer is not None:
            telemetry.trace = tracer.summary()
        return telemetry

    @classmethod
    def from_parallel(
        cls,
        result,
        tracer=None,
        dead_slaves: Optional[List[int]] = None,
    ) -> "ExperimentTelemetry":
        """Digest a ParallelResult (master-side view)."""
        telemetry = cls(
            events_processed=result.total_events,
            sim_time=0.0,
            parallel={
                "n_slaves": result.n_slaves,
                "rounds": result.rounds,
                "converged": result.converged,
                "degraded": result.degraded,
                "dead_slaves": list(dead_slaves or []),
                "failure_causes": dict(result.failure_causes),
                "restarts": result.restarts,
                "resumed": result.resumed,
                "slave_events": list(result.slave_events),
                "total_accepted": result.total_accepted,
            },
        )
        for name, estimate in result.estimates.items():
            telemetry.metrics[name] = {
                "phase": estimate.phase.value,
                "accepted": estimate.accepted,
                "observed": estimate.observed,
                "lag": estimate.lag,
            }
        if tracer is not None:
            telemetry.trace = tracer.summary()
        return telemetry

    def to_dict(self) -> dict:
        """JSON-safe plain form (what ``repro run --metrics`` prints)."""
        payload = {
            "events_processed": self.events_processed,
            "sim_time": self.sim_time,
            "metrics": {name: dict(entry) for name, entry in self.metrics.items()},
        }
        if self.trace:
            payload["trace"] = {
                key: dict(entry) for key, entry in self.trace.items()
            }
        if self.parallel is not None:
            payload["parallel"] = dict(self.parallel)
        return payload
