"""repro.observability — tracing, metrics, and convergence telemetry.

The statistics pipeline (warm-up → calibration → measurement →
convergence) terminates itself; this package makes that process
inspectable instead of a black box:

- :class:`~repro.observability.tracer.Tracer` — JSON-lines structured
  tracing with counter/gauge/event/span primitives, zero-cost when
  disabled, deterministic by default (sim time + monotonic sequence
  numbers; host time only via a boundary-injected clock);
- :mod:`~repro.observability.schema` — the record schema, a
  dependency-free validator (``python -m repro.observability f.jsonl``)
  and the host-field stripper used by determinism comparisons;
- :class:`~repro.observability.telemetry.ExperimentTelemetry` — the
  end-of-run digest attached to results (``repro run --metrics``);
- :class:`~repro.observability.progress.ProgressReporter` — periodic
  convergence-percentage reporting, interactive or from the parallel
  master.

See docs/observability.md for the metric catalog and CLI flags.
"""

from repro import _lazy_exports

__all__ = [
    "ExperimentTelemetry",
    "HOST_KEYS",
    "KINDS",
    "ProgressReporter",
    "TraceError",
    "Tracer",
    "convergence_fractions",
    "strip_host_fields",
    "validate_record",
    "validate_trace_file",
    "validate_trace_lines",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ProgressReporter": "repro.observability.progress",
    "convergence_fractions": "repro.observability.progress",
    "HOST_KEYS": "repro.observability.schema",
    "strip_host_fields": "repro.observability.schema",
    "validate_record": "repro.observability.schema",
    "validate_trace_file": "repro.observability.schema",
    "validate_trace_lines": "repro.observability.schema",
    "ExperimentTelemetry": "repro.observability.telemetry",
    "KINDS": "repro.observability.tracer",
    "TraceError": "repro.observability.tracer",
    "Tracer": "repro.observability.tracer",
})
