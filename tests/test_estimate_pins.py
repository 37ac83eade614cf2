"""Pinned estimates, intervals, progress and telemetry of seeded runs.

``tests/fixtures/estimate_pins.json`` holds, per case, what the
convergence code must reproduce bit for bit: every metric's
:class:`~repro.core.statistic.Estimate` (mean, std, quantiles, both
intervals, lag, counts, phase and verdict), ``Experiment.progress()``
after calibration and at the end, the telemetry digest and the
:class:`~repro.observability.ProgressReporter` lines.  Beside the runs
it pins a batch-means half-width on a seeded sequence.  Floats are
stored as ``float.hex``.  A change meant to keep every number must
leave it green; ``PYTHONPATH=src python -m tests.test_estimate_pins``
re-records the fixture, only for a change that is meant to move them.
"""

import dataclasses
import enum
import io
import json
import numbers
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch_means import BatchMeansEstimator
from repro.datacenter.server import Server
from repro.distributions import Exponential
from repro.engine.experiment import Experiment
from repro.observability import ExperimentTelemetry, ProgressReporter
from repro.parallel import ParallelSimulation
from repro.workloads import web
from repro.workloads.workload import Workload

PINS_FILE = Path(__file__).parent / "fixtures" / "estimate_pins.json"


def plain(value):
    """``value`` as JSON data, every float (keys too) in ``float.hex``."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value).hex()
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value):
        return plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {
            (float(key).hex() if isinstance(key, float) else str(key)):
                plain(item)
            for key, item in value.items()
        }
    return [plain(item) for item in value]


def reporter():
    """A progress reporter on a fake clock: one report every 20 polls."""
    ticks = iter(range(10**9))
    return ProgressReporter(
        stream=io.StringIO(), min_interval=20.0,
        clock=lambda: float(next(ticks)),
    )


def mm1(seed, engine="event", cores=1, rho=0.8):
    experiment = Experiment(
        seed=seed, engine=engine, warmup_samples=300,
        calibration_samples=2000,
    )
    server = Server(cores=cores)
    experiment.add_source(
        Workload("mmc", Exponential(rate=rho * cores), Exponential(rate=1.0)),
        target=server,
    )
    return experiment, server


def mm1_mean_p95(seed):
    experiment, server = mm1(seed)
    experiment.track_response_time(
        server, mean_accuracy=0.05, quantiles={0.95: 0.05}
    )
    return experiment


def two_metric(seed):
    experiment = Experiment(
        seed=seed, warmup_samples=300, calibration_samples=2000
    )
    server = Server(cores=1)
    experiment.add_source(web().at_load(0.6), target=server)
    experiment.track_response_time(
        server, mean_accuracy=0.1, quantiles={0.9: 0.1, 0.5: 0.1}
    )
    experiment.track_waiting_time(server, mean_accuracy=0.1)
    return experiment


def mm4_fastpath(seed):
    experiment, server = mm1(seed, engine="fastpath", cores=4)
    experiment.track_response_time(
        server, mean_accuracy=0.02, quantiles={0.95: 0.05}
    )
    experiment.track_waiting_time(server, mean_accuracy=0.05)
    return experiment


def parallel_factory(seed):
    experiment, server = mm1(seed, rho=0.6)
    experiment.track_response_time(
        server, mean_accuracy=0.03, quantiles={0.95: 0.05}
    )
    return experiment


def serial_case(factory, seed):
    """A seeded serial run: estimates, progress, telemetry, reports."""
    experiment = factory(seed)
    progress = reporter()
    experiment.attach_progress(progress)
    calibrated = None
    if experiment.engine == "event":
        experiment.run_until_calibrated()
        calibrated = plain(experiment.progress())
    result = experiment.run()
    progress.update(experiment.progress())
    return {
        "converged": result.converged,
        "events_processed": result.events_processed,
        "estimates": plain(result.estimates),
        "progress_calibrated": calibrated,
        "progress_end": plain(experiment.progress()),
        "telemetry": plain(
            ExperimentTelemetry.from_experiment(experiment).to_dict()
        ),
        "progress_lines": progress.stream.getvalue().splitlines(),
    }


def parallel_case():
    """A 2-slave serial-backend master run that converges."""
    simulation = ParallelSimulation(
        parallel_factory, n_slaves=2, master_seed=9, chunk_size=500,
        backend="serial",
    )
    progress = reporter()
    simulation.attach_progress(progress)
    result = simulation.run()
    return {
        "converged": result.converged,
        "rounds": result.rounds,
        "total_events": result.total_events,
        "estimates": plain(result.estimates),
        "telemetry": plain(ExperimentTelemetry.from_parallel(
            result, dead_slaves=result.dead_slaves
        ).to_dict()),
        "progress_lines": progress.stream.getvalue().splitlines(),
    }


def batch_means_case():
    """Half-width and relative accuracy over a seeded AR(1) sequence."""
    rng = np.random.default_rng(41)
    noise = rng.standard_normal(5000)
    value, estimator = 0.0, BatchMeansEstimator(batch_size=50)
    for step in noise.tolist():
        value = 0.7 * value + step
        estimator.observe(10.0 + value)
    return plain({
        "batches": estimator.batches,
        "mean": estimator.mean(),
        "confidence_halfwidth": estimator.confidence_halfwidth(),
        "relative_accuracy": estimator.relative_accuracy(),
    })


PINNED_CASES = {
    "mm1-event": lambda: serial_case(mm1_mean_p95, 11),
    "two-metric": lambda: serial_case(two_metric, 12),
    "mm4-fastpath": lambda: serial_case(mm4_fastpath, 13),
    "par2-serial": parallel_case,
    "batch-means": batch_means_case,
}


def record():
    # Through JSON so tuples take the fixture's form.
    return json.loads(json.dumps(
        {case: build() for case, build in PINNED_CASES.items()}
    ))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_FILE.read_text())


class TestPinnedEstimates:
    def test_every_case_is_pinned(self, pins):
        assert set(pins) == set(PINNED_CASES)

    @pytest.mark.parametrize("case", PINNED_CASES)
    def test_case_equals_recorded_values(self, pins, case):
        got = json.loads(json.dumps(PINNED_CASES[case]()))
        assert got == pins[case]


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    PINS_FILE.write_text(json.dumps(record(), indent=1) + "\n")
