"""Tests for the observability subsystem: tracer, schema, telemetry.

Covers the tentpole contracts from the tracing PR: the record schema is
stable and validated, tracing is zero-cost when disabled (no emissions,
no attached state), and identical-seed traced runs produce identical
records once the host-clock keys are stripped.
"""

import io
import json
import math
import sys
import threading

import pytest

from repro.observability import (
    ExperimentTelemetry,
    ProgressReporter,
    TraceError,
    Tracer,
    convergence_fractions,
    strip_host_fields,
    validate_record,
    validate_trace_file,
    validate_trace_lines,
)


class FakeClock:
    """Deterministic stand-in for time.perf_counter."""

    def __init__(self, step=0.25):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def small_experiment(seed=1, accuracy=0.1):
    from repro import Experiment, Server
    from repro.workloads import web

    experiment = Experiment(seed=seed, warmup_samples=100,
                            calibration_samples=500)
    server = Server(cores=1)
    experiment.add_source(web().at_load(0.5), target=server)
    experiment.track_response_time(server, mean_accuracy=accuracy)
    return experiment


class TestTracer:
    def test_emit_and_read_back(self):
        tracer = Tracer.to_memory()
        tracer.counter("events", 100, component="engine", sim_time=1.5)
        tracer.gauge("queue_depth", 3, component="engine", sim_time=1.5)
        tracer.event("phase", component="statistic", to="measurement")
        records = tracer.lines()
        assert [r["kind"] for r in records] == ["counter", "gauge", "event"]
        assert records[0]["value"] == 100
        assert records[2]["fields"] == {"to": "measurement"}

    def test_seq_is_strictly_increasing(self):
        tracer = Tracer.to_memory()
        for i in range(5):
            tracer.event("tick", component="cli")
        assert [r["seq"] for r in tracer.lines()] == [1, 2, 3, 4, 5]
        assert tracer.records_emitted == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceError, match="unknown record kind"):
            Tracer.to_memory().emit("timer", "x", component="cli")

    def test_sink_must_be_file_like(self):
        with pytest.raises(TraceError, match="file-like"):
            Tracer(sink="not-a-file.jsonl")

    def test_span_requires_injected_clock(self):
        tracer = Tracer.to_memory()
        with pytest.raises(TraceError, match="host clock"):
            with tracer.span("merge", component="master"):
                pass

    def test_span_measures_host_duration(self):
        tracer = Tracer.to_memory(clock=FakeClock())
        with tracer.span("merge", component="master", round=2):
            pass
        (record,) = tracer.lines()
        assert record["kind"] == "span"
        assert record["host_duration"] > 0
        assert record["fields"] == {"round": 2}

    def test_clock_stamps_host_time(self):
        tracer = Tracer.to_memory(clock=FakeClock())
        tracer.event("go", component="cli")
        assert tracer.lines()[0]["host_time"] > 0

    def test_no_clock_no_host_time(self):
        tracer = Tracer.to_memory()
        tracer.event("go", component="cli")
        assert "host_time" not in tracer.lines()[0]
        assert not tracer.has_clock

    def test_summary_aggregates(self):
        tracer = Tracer.to_memory()
        tracer.counter("events", 10, component="engine")
        tracer.counter("events", 20, component="engine")
        tracer.event("phase", component="statistic")
        summary = tracer.summary()
        assert summary["engine/events"] == {
            "kind": "counter", "emitted": 2, "last": 20,
        }
        assert summary["statistic/phase"]["emitted"] == 1

    def test_close_disables_and_is_idempotent(self):
        tracer = Tracer.to_memory()
        tracer.close()
        tracer.close()
        tracer.event("after", component="cli")  # silently dropped
        assert tracer.lines() == []

    def test_to_path_owns_the_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer.to_path(path)
        tracer.event("hello", component="cli")
        tracer.close()
        count, errors = validate_trace_file(path)
        assert (count, errors) == (1, [])

    def test_lines_requires_memory_sink(self, tmp_path):
        tracer = Tracer.to_path(tmp_path / "t.jsonl")
        try:
            with pytest.raises(TraceError, match="in-memory"):
                tracer.lines()
        finally:
            tracer.close()

    def test_threads_write_records_in_seq_order(self):
        # Socket readers, the heartbeat and frame-fault timers emit
        # from their own threads; a switch between taking a seq
        # and writing its line would put the lines out of order.
        tracer = Tracer.to_memory()

        def emit():
            for value in range(2000):
                tracer.counter("n", value, component="test")

        threads = [threading.Thread(target=emit) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        seqs = [record["seq"] for record in tracer.lines()]
        assert seqs == list(range(1, 16001))
        assert tracer.summary()["test/n"]["emitted"] == 16000


class TestSchema:
    def good(self, **overrides):
        record = {
            "seq": 1, "kind": "event", "name": "phase",
            "component": "statistic", "sim_time": 2.0,
        }
        record.update(overrides)
        return record

    def test_valid_record(self):
        assert validate_record(self.good()) == []
        assert validate_record(
            self.good(kind="gauge", value=1.5, fields={"a": 1},
                      host_time=9.0)
        ) == []

    def test_missing_required_key(self):
        record = self.good()
        del record["component"]
        assert any("component" in e for e in validate_record(record))

    def test_counter_requires_value(self):
        errors = validate_record(self.good(kind="counter"))
        assert any("require a value" in e for e in errors)

    def test_bad_seq_and_kind(self):
        assert validate_record(self.good(seq=0))
        assert validate_record(self.good(kind="metric"))

    def test_unknown_key_flagged(self):
        errors = validate_record(self.good(wall_time=1.0))
        assert any("unknown key" in e for e in errors)

    def test_non_object_line(self):
        assert validate_record([1, 2, 3])

    def test_lines_enforce_increasing_seq(self):
        lines = [
            json.dumps(self.good(seq=1)),
            json.dumps(self.good(seq=1)),
        ]
        count, errors = validate_trace_lines(lines)
        assert count == 2
        assert any("not greater" in e for e in errors)

    def test_invalid_json_reported_with_line_number(self):
        count, errors = validate_trace_lines(["{not json"])
        assert errors and errors[0].startswith("line 1")

    def test_strip_host_fields(self):
        record = self.good(host_time=1.0, host_duration=0.5, value=2.0)
        stripped = strip_host_fields(record)
        assert "host_time" not in stripped
        assert "host_duration" not in stripped
        assert stripped["value"] == 2.0
        assert "host_time" in record  # a copy, not in-place


class TestZeroCostDisabled:
    def test_untrace_run_has_no_tracer_state(self):
        experiment = small_experiment()
        result = experiment.run()
        assert result.converged
        assert experiment.tracer is None
        assert experiment.simulation.tracer is None
        assert result.telemetry is None

    def test_attach_none_detaches(self):
        experiment = small_experiment()
        tracer = Tracer.to_memory()
        experiment.attach_tracer(tracer)
        assert experiment.tracer is tracer
        experiment.attach_tracer(None)
        assert experiment.tracer is None
        experiment.run()
        assert tracer.lines() == []


class TestTracedExperiment:
    def run_traced(self, seed=1):
        experiment = small_experiment(seed=seed)
        tracer = Tracer.to_memory()
        experiment.attach_tracer(tracer)
        result = experiment.run()
        return result, tracer

    def test_trace_covers_engine_and_statistic(self):
        result, tracer = self.run_traced()
        assert result.converged
        records = tracer.lines()
        components = {record["component"] for record in records}
        assert {"engine", "statistic"} <= components
        names = {record["name"] for record in records}
        assert {"events", "phase", "convergence"} <= names

    def test_trace_is_schema_valid(self):
        _, tracer = self.run_traced()
        raw = tracer._sink.getvalue().splitlines()
        count, errors = validate_trace_lines(raw)
        assert count == len(raw) > 0
        assert errors == []

    def test_phase_events_record_lag_selection(self):
        _, tracer = self.run_traced()
        phases = [
            record for record in tracer.lines()
            if record["name"] == "phase"
            and record["fields"].get("to") == "measurement"
        ]
        assert len(phases) == 1
        fields = phases[0]["fields"]
        assert "lag" in fields
        assert "lag_conclusive" in fields

    def test_identical_seeds_trace_identically(self):
        _, first = self.run_traced(seed=42)
        _, second = self.run_traced(seed=42)
        a = [strip_host_fields(record) for record in first.lines()]
        b = [strip_host_fields(record) for record in second.lines()]
        assert a == b

    def test_telemetry_attached_when_traced(self):
        result, tracer = self.run_traced()
        telemetry = result.telemetry
        assert telemetry is not None
        payload = telemetry.to_dict()
        json.dumps(payload)  # JSON-safe
        assert payload["events_processed"] > 0
        metric = payload["metrics"]["response_time"]
        assert metric["phase"] == "converged"
        assert metric["lag_conclusive"] is True
        assert metric["convergence_checks"] >= 1
        assert payload["trace"]["engine/events"]["emitted"] >= 1


class TestTelemetryWithoutTracer:
    def test_collect_telemetry_flag(self):
        experiment = small_experiment()
        experiment.collect_telemetry = True
        result = experiment.run()
        assert result.telemetry is not None
        assert result.telemetry.trace == {}
        assert result.telemetry.events_processed == result.events_processed


class TestProgressReporter:
    def test_poll_throttles_against_clock(self):
        experiment = small_experiment()
        experiment.run()
        stream = io.StringIO()
        clock = FakeClock(step=1.0)
        reporter = ProgressReporter(stream=stream, min_interval=3.0,
                                    clock=clock)
        polled = [reporter.poll(experiment) for _ in range(6)]
        # Clock ticks 1s per poll: the first fires, then every third.
        assert polled == [True, False, False, True, False, False]
        assert reporter.reports_written == 2

    @pytest.mark.parametrize("engine", ["event", "auto", "fastpath"])
    def test_attached_reporter_is_polled_on_every_engine(self, engine):
        from repro.engine.report import result_to_dict

        def run(reporter):
            experiment = small_experiment()
            experiment.engine = engine
            if reporter is not None:
                experiment.attach_progress(reporter)
            payload = result_to_dict(experiment.run())
            del payload["wall_time"]
            return payload

        reporter = ProgressReporter(stream=io.StringIO(), min_interval=0.0)
        reported = run(reporter)
        assert reporter.reports_written > 0
        assert "[progress] response_time" in reporter.stream.getvalue()
        # A reporter neither moves an estimate nor changes which engine
        # runs (extras carries the engine).
        assert reported == run(None)
        assert ("engine" in reported["extras"]) == (engine != "event")

    def test_update_renders_phase_and_fraction(self):
        experiment = small_experiment()
        experiment.run()
        stream = io.StringIO()
        ProgressReporter(stream=stream).update(experiment.progress())
        line = stream.getvalue()
        assert "[progress] response_time" in line
        assert "converged" in line

    def test_convergence_fractions_clamped(self):
        from repro.core.histogram import BinScheme, Histogram
        from repro.core.convergence import MetricTargets

        histogram = Histogram(BinScheme(0.0, 10.0, 32))
        for value in (1.0, 2.0, 3.0):
            histogram.insert(value)
        targets = {
            "m": MetricTargets(name="m", mean_accuracy=0.5,
                               quantile_targets=(), confidence=0.95,
                               min_accepted=1)
        }
        fractions = convergence_fractions({"m": histogram}, targets)
        assert 0.0 <= fractions["m"] <= 1.0


class TestParallelTracing:
    def parallel_factory(self, seed):
        return small_experiment(seed=seed, accuracy=0.15)

    def test_serial_backend_trace_covers_master_and_slaves(self):
        from repro.parallel.master import ParallelSimulation

        tracer = Tracer.to_memory(clock=FakeClock())
        simulation = ParallelSimulation(
            self.parallel_factory, n_slaves=2, master_seed=5,
            backend="serial", chunk_size=2000,
        )
        simulation.attach_tracer(tracer)
        result = simulation.run()
        assert result.converged
        raw = tracer._sink.getvalue().splitlines()
        count, errors = validate_trace_lines(raw)
        assert errors == []
        records = tracer.lines()
        components = {record["component"] for record in records}
        assert {"master", "slave"} <= components
        merges = [r for r in records if r["name"] == "merge"]
        assert merges and all(r["kind"] == "span" for r in merges)
        reports = [r for r in records if r["name"] == "report"]
        assert {r["fields"]["slave"] for r in reports} == {0, 1}
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.parallel["n_slaves"] == 2
        assert telemetry.parallel["degraded"] is False

    def test_clockless_tracer_still_traces_merges_without_spans(self):
        from repro.parallel.master import ParallelSimulation

        tracer = Tracer.to_memory()  # no clock: spans unavailable
        simulation = ParallelSimulation(
            self.parallel_factory, n_slaves=2, master_seed=5,
            backend="serial", chunk_size=2000,
        )
        simulation.attach_tracer(tracer)
        result = simulation.run()
        assert result.converged
        assert all(r["kind"] != "span" for r in tracer.lines())


class TestTelemetryFromParallel:
    def test_from_parallel_digest(self):
        from repro.parallel.master import ParallelSimulation

        result = ParallelSimulation(
            self_factory, n_slaves=2, master_seed=5, backend="serial",
            chunk_size=2000,
        ).run()
        telemetry = ExperimentTelemetry.from_parallel(result)
        payload = telemetry.to_dict()
        json.dumps(payload)
        assert payload["parallel"]["rounds"] == result.rounds
        assert payload["parallel"]["slave_events"] == result.slave_events
        assert "response_time" in payload["metrics"]


def self_factory(seed):
    return small_experiment(seed=seed, accuracy=0.15)
