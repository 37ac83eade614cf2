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
        for statistic in experiment.stats:
            required = statistic.required_sample_size()
            selection = getattr(statistic, "lag_selection", None)
            entry = {
                "phase": statistic.phase.value,
                "observed": statistic.observed,
                "accepted": statistic.accepted,
                "required": _json_number(required),
                "lag": statistic.lag,
                "convergence_checks": getattr(
                    statistic, "convergence_checks", 0
                ),
            }
            if selection is not None:
                entry["lag_conclusive"] = selection.conclusive
                entry["lag_reason"] = selection.reason
            if required not in (0, math.inf):
                entry["fraction_done"] = min(
                    1.0, statistic.accepted / required
                )
            entry.update(
                {
                    f"halfwidth_{key}": value
                    for key, value in statistic.achieved_accuracy().items()
                }
            )
            telemetry.metrics[statistic.name] = entry
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
                "degraded": getattr(result, "degraded", False),
                "dead_slaves": list(dead_slaves or []),
                "failure_causes": dict(getattr(result, "failure_causes", {})),
                "restarts": getattr(result, "restarts", 0),
                "resumed": getattr(result, "resumed", False),
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
