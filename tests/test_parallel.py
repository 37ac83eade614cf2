"""Tests for the master/slave parallel simulation (Fig. 3)."""

import numpy as np
import pytest

from repro.core.histogram import BinScheme, Histogram
from repro.core.statistic import Phase
from repro.faults.recovery import derive_seed
from repro.parallel import (
    DeltaTracker,
    ParallelError,
    ParallelSimulation,
    histogram_delta,
)
from repro.parallel.master import build_slave_experiment
from repro.parallel.protocol import (
    scheme_from_payload,
    scheme_payload,
    validate_report_payload,
)
from repro.parallel.transport import shutdown_processes
from tests.test_histogram import NON_INT_MASSES, four_bin_payload


def crashing_factory(seed, master_seed=3):
    """Builds a working experiment for the master, dies for any slave.

    Module-level (picklable) so the process backend can fork it; the
    slave process crashes during construction, closing its pipe end.
    """
    if seed != master_seed:
        raise RuntimeError(f"slave with seed {seed} crashed")
    return factory(seed)


def factory(seed, load=0.6, accuracy=0.05):
    """Module-level factory (picklable for the process backend)."""
    from repro import Experiment, Server
    from repro.workloads import web

    experiment = Experiment(seed=seed, warmup_samples=300,
                            calibration_samples=2000)
    server = Server(cores=1)
    experiment.add_source(web().at_load(load), target=server)
    experiment.track_response_time(
        server, mean_accuracy=accuracy, quantiles={0.95: 0.1}
    )
    return experiment


def two_metric_factory(seed):
    """Factory with two metrics of very different convergence speeds."""
    from repro import Experiment, Server
    from repro.workloads import web

    experiment = Experiment(seed=seed, warmup_samples=300,
                            calibration_samples=2000)
    server = Server(cores=1)
    experiment.add_source(web().at_load(0.6), target=server)
    experiment.track_response_time(server, mean_accuracy=0.05)
    experiment.track_waiting_time(server, mean_accuracy=0.1)
    return experiment


def easy_and_hard_factory(seed):
    """An easy metric (E 0.2) beside one that takes far longer (E 0.005)."""
    from repro import Experiment, Server
    from repro.workloads import web

    experiment = Experiment(seed=seed, warmup_samples=300,
                            calibration_samples=2000)
    server = Server(cores=1)
    experiment.add_source(web().at_load(0.6), target=server)
    experiment.track_response_time(server, mean_accuracy=0.2)
    experiment.track_waiting_time(server, mean_accuracy=0.005)
    return experiment


class TestProtocolPieces:
    def test_scheme_payload_roundtrip(self):
        scheme = BinScheme(low=0.5, high=9.5, bins=128)
        assert scheme_from_payload(scheme_payload(scheme)) == scheme

    def test_slave_seeds_unique(self):
        seeds = [derive_seed(42, i) for i in range(64)]
        assert len(set(seeds)) == 64
        assert 42 not in seeds

    def test_metric_targets_snapshot(self):
        experiment = factory(seed=1)
        targets = experiment.stats["response_time"].targets
        assert targets.name == "response_time"
        assert targets.mean_accuracy == 0.05
        assert targets.quantile_targets == ((0.95, 0.1),)

    def test_build_slave_applies_schemes(self):
        scheme = BinScheme(low=0.0, high=50.0, bins=64)
        slave = build_slave_experiment(
            factory, {}, seed=3,
            schemes={"response_time": scheme_payload(scheme)},
        )
        assert slave.stats["response_time"].fixed_scheme == scheme

    def test_build_slave_rejects_missing_metric(self):
        scheme = BinScheme(low=0.0, high=50.0, bins=64)
        with pytest.raises(ParallelError):
            build_slave_experiment(
                factory, {}, seed=3,
                schemes={"unknown": scheme_payload(scheme)},
            )


class TestValidation:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ParallelError):
            ParallelSimulation(factory, n_slaves=0)
        with pytest.raises(ParallelError):
            ParallelSimulation(factory, chunk_size=0)
        with pytest.raises(ParallelError):
            ParallelSimulation(factory, backend="mpi")


class TestDeltaProtocol:
    SCHEME = BinScheme(low=0.0, high=10.0, bins=20)

    def _histogram_with(self, values):
        histogram = Histogram(self.SCHEME)
        for value in values:
            histogram.insert(value)
        return histogram

    def test_first_report_is_full_payload(self):
        payload = self._histogram_with([1.0, 2.0, 3.0]).to_payload()
        assert histogram_delta(payload, None) == payload

    def test_delta_holds_only_new_counts(self):
        histogram = self._histogram_with([1.0, 2.0])
        before = histogram.to_payload()
        histogram.insert(2.0)
        histogram.insert(7.5)
        delta = histogram_delta(histogram.to_payload(), before)
        assert delta["count"] == 2
        assert sum(delta["counts"]) == 2
        assert delta["sum"] == pytest.approx(9.5)
        # Extrema stay absolute, not differenced.
        assert delta["min_seen"] == 1.0
        assert delta["max_seen"] == 7.5

    def test_delta_rejects_scheme_change(self):
        before = self._histogram_with([1.0]).to_payload()
        other = Histogram(BinScheme(low=0.0, high=5.0, bins=20))
        other.insert(1.0)
        with pytest.raises(ParallelError, match="scheme changed"):
            histogram_delta(other.to_payload(), before)

    def test_tracker_deltas_accumulate_to_direct_inserts(self):
        """Folding a tracker's delta stream into a merged histogram must
        reproduce the histogram built by inserting every value directly."""
        rng = np.random.default_rng(0)
        rounds = [rng.uniform(0.0, 10.0, size=50) for _ in range(4)]
        local = Histogram(self.SCHEME)
        merged = Histogram(self.SCHEME)
        tracker = DeltaTracker()
        for chunk in rounds:
            for value in chunk:
                local.insert(value)
            (delta,) = tracker.delta_histograms(
                {"metric": local.to_payload()}
            ).values()
            merged.merge_payload(delta)
        direct = self._histogram_with([v for chunk in rounds for v in chunk])
        merged_payload = merged.to_payload()
        direct_payload = direct.to_payload()
        # Integer state is exact; float moment sums telescope, so they
        # agree to rounding only.
        for key in ("scheme", "counts", "underflow", "overflow", "count",
                    "min_seen", "max_seen"):
            assert merged_payload[key] == direct_payload[key], key
        assert merged_payload["sum"] == pytest.approx(
            direct_payload["sum"], rel=1e-12
        )
        assert merged_payload["sum_sq"] == pytest.approx(
            direct_payload["sum_sq"], rel=1e-12
        )


class TestReportValidation:
    """The master's pre-merge check refuses what merge_payload refuses."""

    SCHEME = (0.0, 1.0, 4)

    @pytest.mark.parametrize("case", sorted(NON_INT_MASSES))
    def test_non_int_masses_are_refused(self, case):
        payload = four_bin_payload(**NON_INT_MASSES[case])
        problem = validate_report_payload(payload, self.SCHEME)
        assert problem is not None and "must be ints" in problem

    @pytest.mark.parametrize("edits, problem", [
        ({"counts": [3, -1, 0, 0]}, "negative bin mass"),
        ({"counts": None}, "malformed payload"),
    ])
    def test_malformed_payloads_name_their_problem(self, edits, problem):
        found = validate_report_payload(four_bin_payload(**edits), self.SCHEME)
        assert found is not None and problem in found


class TestChunkSchedule:
    def test_geometric_growth_with_cap(self):
        simulation = ParallelSimulation(factory, chunk_size=100)
        assert [simulation._round_chunk(r) for r in range(1, 8)] == [
            100, 200, 400, 800, 1600, 1600, 1600
        ]  # cap = 16 * chunk_size

    def test_no_overflow_at_large_round_numbers(self):
        simulation = ParallelSimulation(factory, chunk_size=100)
        assert simulation._round_chunk(10_000) == 1600


class TestSerialBackend:
    def test_converges_and_estimates(self):
        simulation = ParallelSimulation(
            factory, n_slaves=3, master_seed=7, backend="serial",
            chunk_size=1500,
        )
        result = simulation.run()
        assert result.converged
        assert result.n_slaves == 3
        estimate = result["response_time"]
        assert estimate.mean is not None
        assert 0.95 in estimate.quantiles
        assert result.total_accepted >= 100
        assert len(result.slave_events) == 3
        assert result.master_events > 0

    def test_matches_serial_reference(self):
        simulation = ParallelSimulation(
            factory, n_slaves=4, master_seed=7, backend="serial",
        )
        parallel_estimate = simulation.run()["response_time"]
        serial_estimate = factory(seed=123).run()["response_time"]
        assert parallel_estimate.mean == pytest.approx(
            serial_estimate.mean, rel=0.15
        )

    def test_deterministic(self):
        def run():
            return ParallelSimulation(
                factory, n_slaves=2, master_seed=5, backend="serial"
            ).run()["response_time"].mean

        assert run() == run()

    def test_more_slaves_fewer_rounds_each(self):
        few = ParallelSimulation(
            factory, n_slaves=1, master_seed=7, backend="serial",
            chunk_size=1000,
        ).run()
        many = ParallelSimulation(
            factory, n_slaves=4, master_seed=7, backend="serial",
            chunk_size=1000,
        ).run()
        assert many.rounds <= few.rounds

    def test_slaves_thin_by_their_own_lag(self):
        # ROADMAP 1(b): the merged estimate reads accept ratio 1 because
        # the merge drops the observed count, not because slaves stop
        # spacing.  Each slave calibrates its own lag (only the bin
        # scheme is imposed on it) and pays 2 events a job, lag jobs an
        # accepted observation.
        kwargs = {"load": 0.8, "accuracy": 0.001}
        rounds = []

        class Recording(ParallelSimulation):
            def _merge_round(self, merged, reports, round_number):
                rounds.append({r.slave_id: r for r in reports})
                super()._merge_round(merged, reports, round_number)

        simulation = Recording(
            factory, factory_kwargs=kwargs, n_slaves=3, master_seed=7,
            backend="serial", chunk_size=1000, max_rounds=3,
        )
        estimate = simulation.run()["response_time"]
        assert estimate.observed == estimate.accepted  # the dropped count
        master, schemes, _targets = simulation._calibrate_master()
        lags = set()
        for slave_id in range(3):
            alone = build_slave_experiment(
                factory, kwargs, derive_seed(7, slave_id), schemes
            )
            alone.run_until_calibrated()
            lag = alone.stats["response_time"].lag
            first, last = rounds[0][slave_id], rounds[-1][slave_id]
            assert first.lags == last.lags == {"response_time": lag}
            events = last.events_processed - first.events_processed
            accepted = last.total_accepted - first.total_accepted
            assert events / accepted == pytest.approx(2 * lag, rel=0.02)
            lags.add(lag)
        # Not one broadcast lag: the fleet disagrees with itself and
        # with the master's calibration.
        assert len(lags) > 1 and master.stats["response_time"].lag not in lags


class TestMultiMetric:
    def test_each_metric_is_judged_on_its_own(self):
        # A run stopped by max_rounds is unconverged as a whole, but a
        # metric whose merged sample meets its own target says so.
        result = ParallelSimulation(
            easy_and_hard_factory, n_slaves=2, master_seed=5,
            backend="serial", chunk_size=2000, max_rounds=2,
        ).run()
        assert not result.converged
        easy, hard = result["response_time"], result["waiting_time"]
        assert (easy.converged, easy.phase) == (True, Phase.CONVERGED)
        assert (hard.converged, hard.phase) == (False, Phase.MEASUREMENT)

    def test_all_metrics_merge_and_converge(self):
        simulation = ParallelSimulation(
            two_metric_factory, n_slaves=3, master_seed=17,
            backend="serial", chunk_size=1500,
        )
        result = simulation.run()
        assert result.converged
        assert result["response_time"].mean is not None
        assert result["waiting_time"].mean is not None
        # The waiting metric is a strict component of response time.
        assert result["waiting_time"].mean < result["response_time"].mean

    def test_matches_serial_per_metric(self):
        parallel = ParallelSimulation(
            two_metric_factory, n_slaves=2, master_seed=19,
            backend="serial",
        ).run()
        serial = two_metric_factory(seed=456).run()
        for name in ("response_time", "waiting_time"):
            assert parallel[name].mean == pytest.approx(
                serial[name].mean, rel=0.25
            ), name


class TestProcessBackend:
    def test_process_backend_converges(self):
        simulation = ParallelSimulation(
            factory, n_slaves=2, master_seed=7, backend="process",
            chunk_size=2000,
        )
        result = simulation.run()
        assert result.converged
        estimate = result["response_time"]
        serial_estimate = factory(seed=123).run()["response_time"]
        assert estimate.mean == pytest.approx(serial_estimate.mean, rel=0.15)

    def test_process_matches_serial_backend(self):
        kwargs = dict(factory_kwargs={"accuracy": 0.1}, n_slaves=2,
                      master_seed=9, chunk_size=1500)
        serial = ParallelSimulation(factory, backend="serial", **kwargs).run()
        process = ParallelSimulation(factory, backend="process", **kwargs).run()
        # Same seeds, same master-owned chunk schedule: the backends
        # replay identical slave trajectories, not merely similar ones.
        assert process["response_time"].mean == pytest.approx(
            serial["response_time"].mean
        )
        assert process.total_accepted == serial.total_accepted
        assert process.rounds == serial.rounds
        assert process.slave_events == serial.slave_events

    def test_slave_seeds_identical_across_backends(self):
        """derive_seed is pure arithmetic on (master_seed, slave_id), so
        both backends hand replica i the same stream."""
        seeds = [derive_seed(9, i) for i in range(4)]
        assert seeds == [derive_seed(9, i) for i in range(4)]
        assert len(set(seeds)) == 4

    def test_dead_slave_raises_instead_of_hanging(self):
        """A slave that crashes mid-round must surface as ParallelError
        on the master (a bare recv() would block forever)."""
        simulation = ParallelSimulation(
            crashing_factory, n_slaves=2, master_seed=3, backend="process",
            chunk_size=500,
        )
        with pytest.raises(ParallelError, match="slave .* (died|is gone)"):
            simulation.run()


def one_dead_factory(seed, master_seed=11):
    """Master and slave 0 build fine; slave 1 crashes on construction.

    Module-level (picklable) so the process backend can fork it.
    """
    if seed == derive_seed(master_seed, 1):
        raise RuntimeError("slave 1 crashed")
    return factory(seed, accuracy=0.1)


class TestDegradedRuns:
    def test_partial_slave_death_degrades_instead_of_raising(self):
        # Regression: any single dead slave used to abort the whole run.
        # With survivors left, the master finishes on them and flags the
        # result degraded.
        simulation = ParallelSimulation(
            one_dead_factory, n_slaves=2, master_seed=11, backend="process",
            chunk_size=2000,
        )
        result = simulation.run()
        assert result.converged
        assert result.degraded
        assert result.dead_slaves == [1]
        assert result.slave_events[0] > 0

    def test_healthy_run_is_not_degraded(self):
        result = ParallelSimulation(
            factory, n_slaves=2, master_seed=7, backend="serial",
            chunk_size=2000,
        ).run()
        assert not result.degraded
        assert result.dead_slaves == []


class FakePipe:
    def __init__(self, broken=False):
        self.sent = []
        self.broken = broken

    def send(self, message):
        if self.broken:
            raise BrokenPipeError("pipe closed")
        self.sent.append(message)

    def close(self):
        pass


class FakeProcess:
    """Stand-in slave that dies only at a chosen escalation level."""

    def __init__(self, dies_on="join"):
        self.dies_on = dies_on
        self.signals = []
        self._alive = dies_on != "join"

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return self._alive

    def terminate(self):
        self.signals.append("terminate")
        if self.dies_on == "terminate":
            self._alive = False

    def kill(self):
        self.signals.append("kill")
        if self.dies_on == "kill":
            self._alive = False


class TestShutdownEscalation:
    def shutdown(self, processes, pipes=None, **kwargs):
        if pipes is None:
            pipes = [FakePipe() for _ in processes]
        return shutdown_processes(
            processes, pipes, join_timeout=0.01, escalation_timeout=0.01,
            **kwargs,
        )

    def test_clean_exit_needs_no_escalation(self):
        processes = [FakeProcess("join"), FakeProcess("join")]
        assert self.shutdown(processes) == []
        assert all(process.signals == [] for process in processes)

    def test_stubborn_slave_gets_terminated(self):
        processes = [FakeProcess("join"), FakeProcess("terminate")]
        assert self.shutdown(processes) == [(1, "terminate")]
        assert processes[1].signals == ["terminate"]

    def test_sigterm_ignoring_slave_gets_killed(self):
        process = FakeProcess("kill")
        assert self.shutdown([process]) == [(0, "kill")]
        assert process.signals == ["terminate", "kill"]

    def test_broken_pipe_does_not_abort_shutdown(self):
        # The stop message may race the slave's own death; shutdown must
        # proceed to the join/terminate ladder regardless.
        processes = [FakeProcess("terminate")]
        escalations = self.shutdown(processes, pipes=[FakePipe(broken=True)])
        assert escalations == [(0, "terminate")]

    def test_sparse_fleet_is_named_by_worker_id_not_position(self):
        # Slave 0 died earlier: the fleet shut down is [1, 2], and the
        # escalation must name slave 2, not list position 1.
        from repro.observability import Tracer
        from repro.parallel.transport import LocalEndpoint, LocalPipeTransport

        tracer = Tracer.to_memory()
        transport = LocalPipeTransport("fork")
        transport.attach_tracer(tracer)
        transport.shutdown([
            LocalEndpoint(1, 0, FakePipe(), FakeProcess("join")),
            LocalEndpoint(2, 1, FakePipe(), FakeProcess("terminate")),
        ])
        (record,) = tracer.lines()
        assert record["name"] == "shutdown_escalation"
        assert record["fields"] == {"slave": 2, "action": "terminate"}

    def test_escalations_are_traced(self):
        from repro.observability import Tracer

        tracer = Tracer.to_memory()
        self.shutdown([FakeProcess("kill")], tracer=tracer)
        records = tracer.lines()
        assert len(records) == 1
        assert records[0]["name"] == "shutdown_escalation"
        assert records[0]["fields"] == {"slave": 0, "action": "kill"}
