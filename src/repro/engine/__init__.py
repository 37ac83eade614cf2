"""Discrete-event simulation engine.

A deliberately small, classic engine: a time-ordered event queue with
cancellation (needed to re-schedule job completions when a server's speed
changes under DVFS or DreamWeaver preemption), deterministic per-component
random streams spawned from a single experiment seed, and an
:class:`~repro.engine.experiment.Experiment` driver that advances events
until every tracked output metric has converged (Section 2.3 of the
paper) or a safety limit is hit.
"""

from repro import _lazy_exports

__all__ = [
    "Event",
    "EventQueue",
    "SimulationError",
    "Simulation",
    "Experiment",
    "ExperimentResult",
    "PeriodicProbe",
    "CompletionProbe",
    "slowdown",
    "estimate_to_dict",
    "result_to_dict",
    "save_result",
    "load_result",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Event": "repro.engine.events",
    "EventQueue": "repro.engine.events",
    "SimulationError": "repro.engine.events",
    "Simulation": "repro.engine.simulation",
    "Experiment": "repro.engine.experiment",
    "ExperimentResult": "repro.engine.experiment",
    "CompletionProbe": "repro.engine.probes",
    "PeriodicProbe": "repro.engine.probes",
    "slowdown": "repro.engine.probes",
    "estimate_to_dict": "repro.engine.report",
    "load_result": "repro.engine.report",
    "result_to_dict": "repro.engine.report",
    "save_result": "repro.engine.report",
})
