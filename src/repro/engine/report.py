"""Result serialization: experiment outcomes as plain JSON.

Long parameter sweeps (every benchmark in this repo) want results on
disk in a tool-agnostic form.  ``result_to_dict`` flattens an
:class:`~repro.engine.experiment.ExperimentResult` (and
``parallel_result_to_dict`` a parallel one) into JSON-safe plain data
for ``json.dump``, which is what ``repro run`` writes.
"""

from __future__ import annotations

from repro.core.statistic import Estimate
from repro.engine.experiment import ExperimentResult


def estimate_to_dict(estimate: Estimate) -> dict:
    """One metric's estimate as plain data."""
    return {
        "name": estimate.name,
        "phase": estimate.phase.value,
        "converged": estimate.converged,
        "lag": estimate.lag,
        "accepted": estimate.accepted,
        "observed": estimate.observed,
        "mean": estimate.mean,
        "std": estimate.std,
        "mean_ci": list(estimate.mean_ci) if estimate.mean_ci else None,
        "quantiles": {str(q): value for q, value in estimate.quantiles.items()},
        "quantile_ci": {
            str(q): list(interval)
            for q, interval in estimate.quantile_ci.items()
        },
    }


def result_to_dict(result: ExperimentResult) -> dict:
    """A full experiment outcome as plain data."""
    payload = {
        "converged": result.converged,
        "events_processed": result.events_processed,
        "sim_time": result.sim_time,
        "wall_time": result.wall_time,
        "jobs_generated": result.jobs_generated,
        "extras": dict(result.extras),
        "metrics": {
            name: estimate_to_dict(estimate)
            for name, estimate in result.estimates.items()
        },
    }
    sanitizer = getattr(result, "sanitizer", None)
    if sanitizer is not None:
        payload["sanitizer"] = sanitizer.to_dict()
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        payload["telemetry"] = _plain(telemetry)
    return payload


def _plain(value):
    """Objects with a to_dict() flatten themselves; dicts pass through."""
    return value.to_dict() if hasattr(value, "to_dict") else value


def parallel_result_to_dict(result) -> dict:
    """A ParallelResult as plain data (``repro run --parallel N``)."""
    payload = {
        "converged": result.converged,
        "n_slaves": result.n_slaves,
        "rounds": result.rounds,
        "degraded": result.degraded,
        "dead_slaves": list(result.dead_slaves),
        "failure_causes": {
            str(slave_id): cause
            for slave_id, cause in sorted(result.failure_causes.items())
        },
        "restarts": result.restarts,
        "resumed": result.resumed,
        "merged_digests": dict(result.merged_digests),
        "master_events": result.master_events,
        "slave_events": list(result.slave_events),
        "total_events": result.total_events,
        "total_accepted": result.total_accepted,
        "wall_time": result.wall_time,
        "master_wall_time": result.master_wall_time,
        "metrics": {
            name: estimate_to_dict(estimate)
            for name, estimate in result.estimates.items()
        },
    }
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        payload["telemetry"] = _plain(telemetry)
    return payload
