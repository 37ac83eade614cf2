"""Integration tests for the Experiment layer against queuing theory."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro import Experiment, Server, Workload
from repro.distributions import Exponential
from repro.power import CubicDVFSPowerModel, ServerDVFS
from repro.workloads import web

EXTENDING = Path(__file__).parent.parent / "docs" / "extending.md"


class TestBasicRun:
    def test_requires_metrics(self, mm1_experiment):
        experiment, _server = mm1_experiment
        with pytest.raises(RuntimeError):
            experiment.run()

    def test_converges_and_reports(self, mm1_experiment):
        experiment, server = mm1_experiment
        experiment.track_response_time(server, mean_accuracy=0.05)
        result = experiment.run()
        assert result.converged
        assert result.events_processed > 0
        assert result.sim_time > 0
        assert "response_time" in result
        assert result.jobs_generated > 0

    def test_unconverged_flagged_at_event_cap(self, mm1_experiment):
        experiment, server = mm1_experiment
        experiment.track_response_time(server, mean_accuracy=0.001)
        result = experiment.run(max_events=5000)
        assert not result.converged

    def test_reproducible_with_seed(self):
        def run(seed):
            experiment = Experiment(
                seed=seed, warmup_samples=100, calibration_samples=1000
            )
            server = Server()
            workload = Workload(
                "x", Exponential(rate=10.0), Exponential(rate=20.0)
            )
            experiment.add_source(workload, target=server)
            experiment.track_response_time(server, mean_accuracy=0.1)
            return experiment.run()["response_time"].mean

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_duplicate_metric_names_rejected(self, mm1_experiment):
        experiment, server = mm1_experiment
        experiment.track_response_time(server)
        from repro.core.statistic import StatisticError

        with pytest.raises(StatisticError):
            experiment.track_response_time(server)


class TestTheoryValidation:
    """Orderings the closed forms imply; the closed forms themselves are
    rows of the acceptance grid (``repro.validation.acceptance``)."""

    def test_mmk_stays_stable_and_ordered(self):
        # More cores at equal total load -> shorter waits.
        def mean_response(cores):
            experiment = Experiment(seed=15, warmup_samples=300,
                                    calibration_samples=2000)
            server = Server(cores=cores)
            workload = Workload(
                "mmk", Exponential(rate=cores * 10.0), Exponential(rate=20.0)
            )
            experiment.add_source(workload, target=server)
            experiment.track_response_time(server, mean_accuracy=0.05)
            return experiment.run()["response_time"].mean

        assert mean_response(4) < mean_response(1)


class TestMultiMetric:
    def test_both_metrics_converge(self):
        experiment = Experiment(seed=21, warmup_samples=300,
                                calibration_samples=2000)
        server = Server()
        experiment.add_source(web().at_load(0.6), target=server)
        experiment.track_response_time(server, mean_accuracy=0.05)
        experiment.track_waiting_time(server, mean_accuracy=0.1)
        result = experiment.run()
        assert result.converged
        assert result["waiting_time"].mean < result["response_time"].mean

    def test_run_until_calibrated_stops_early(self):
        experiment = Experiment(seed=22, warmup_samples=300,
                                calibration_samples=2000)
        server = Server()
        experiment.add_source(web().at_load(0.5), target=server)
        experiment.track_response_time(server, mean_accuracy=0.01)
        result = experiment.run_until_calibrated()
        assert not result.converged
        statistic = experiment.stats["response_time"]
        assert statistic.histogram is not None
        assert statistic.lag is not None

    def test_run_until_accepted(self):
        experiment = Experiment(seed=23, warmup_samples=300,
                                calibration_samples=2000)
        server = Server()
        experiment.add_source(web().at_load(0.5), target=server)
        experiment.track_response_time(server, mean_accuracy=0.01)
        experiment.run_until_calibrated()
        before = experiment.stats.total_accepted
        experiment.run_until_accepted(500)
        assert experiment.stats.total_accepted >= before + 500

    def test_run_until_accepted_stops_once_converged(self):
        # A converged statistic ignores further observations, so the
        # quota can become unreachable; the chunk loop must return
        # instead of burning events to max_events (a loose-accuracy
        # parallel slave used to spin to its 10M-event cap here).
        experiment = Experiment(seed=23, warmup_samples=300,
                                calibration_samples=2000)
        server = Server()
        experiment.add_source(web().at_load(0.5), target=server)
        experiment.track_response_time(server, mean_accuracy=0.2)
        experiment.run_until_calibrated()
        while not experiment.stats.all_converged:
            experiment.run_until_accepted(500, max_events=5_000_000)
        accepted = experiment.stats.total_accepted
        result = experiment.run_until_accepted(10_000, max_events=5_000_000)
        assert experiment.stats.total_accepted == accepted
        assert result.events_processed < 5_000_000

    def test_run_until_accepted_validates(self):
        experiment = Experiment(seed=24)
        server = Server()
        experiment.add_source(web().at_load(0.5), target=server)
        experiment.track_response_time(server)
        with pytest.raises(ValueError):
            experiment.run_until_accepted(0)

    def test_progress_snapshot(self):
        experiment = Experiment(seed=26, warmup_samples=300,
                                calibration_samples=2000)
        server = Server()
        experiment.add_source(web().at_load(0.5), target=server)
        experiment.track_response_time(server, mean_accuracy=0.05)
        snapshot = experiment.progress()
        assert snapshot["response_time"]["phase"] == "warmup"
        experiment.run_until_calibrated()
        experiment.run_until_accepted(500)
        snapshot = experiment.progress()
        entry = snapshot["response_time"]
        assert entry["phase"] in ("measurement", "converged")
        assert entry["accepted"] >= 500
        assert entry["lag"] >= 1
        if "fraction_done" in entry:
            assert 0.0 < entry["fraction_done"] <= 1.0

    def test_custom_metric_via_record(self):
        experiment = Experiment(seed=25, warmup_samples=100,
                                calibration_samples=1000)
        server = Server()
        experiment.add_source(web().at_load(0.5), target=server)
        experiment.track("queue_depth", mean_accuracy=None, quantiles={0.9: 0.2})
        server.on_complete(
            lambda job, srv: experiment.record("queue_depth", srv.queue_length + 1.0)
        )
        result = experiment.run(max_events=2_000_000)
        estimate = result["queue_depth"]
        assert estimate.quantiles[0.9] >= 1.0


def documented_feeds():
    """The code blocks of ``docs/extending.md`` §1: the per-completion
    feed, then the periodic one."""
    section = EXTENDING.read_text().split("## 1.", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def run_documented(block, **names):
    exec(compile(block, str(EXTENDING), "exec"), names)


class TestDocumentedMetricFeeds:
    """``docs/extending.md`` §1 run as written, so a doc edit that breaks
    either pattern fails here."""

    def test_extracts_per_job(self):
        per_job, _ = documented_feeds()
        experiment = Experiment(seed=26, warmup_samples=100,
                                calibration_samples=1000)
        server = Server()
        experiment.add_source(web().at_load(0.5), target=server)
        run_documented(per_job, experiment=experiment, server=server)
        result = experiment.run(max_events=2_000_000)
        # One observation per completed job, none below the 1.0 offset.
        assert result["queue_depth"].observed == server.completed_jobs
        assert result["queue_depth"].quantiles[0.9] >= 1.0

    def test_feeds_experiment_metric(self):
        _, periodic = documented_feeds()
        experiment = Experiment(seed=5, warmup_samples=50,
                                calibration_samples=500)
        server = Server(cores=2)
        coupling = ServerDVFS(server, CubicDVFSPowerModel(100.0, 300.0))
        experiment.add_source(web().at_load(0.5, cores=2), target=server)
        run_documented(periodic, experiment=experiment, coupling=coupling)
        result = experiment.run(max_events=2_000_000)
        # One sample a simulated second, between idle and peak power.
        assert result["power"].observed == math.floor(result.sim_time)
        assert 100.0 < result["power"].mean < 300.0
