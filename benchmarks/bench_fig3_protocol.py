"""Fig. 3 — the parallel master/slave execution sequence.

The figure shows: master warm-up + calibration, histogram bin scheme
broadcast, per-slave warm-up + calibration under unique seeds, chunked
measurement until the aggregate sample suffices, and the final histogram
merge.  This benchmark executes the full protocol on the deterministic
serial backend and asserts each structural step.
"""

import pytest

from conftest import save_rows
from repro.faults.recovery import derive_seed
from repro.parallel import ParallelSimulation
from repro.parallel.master import build_slave_experiment


def factory(seed, accuracy=0.05):
    from repro import Experiment, Server
    from repro.workloads import web

    experiment = Experiment(seed=seed, warmup_samples=300,
                            calibration_samples=2000)
    server = Server(cores=1)
    experiment.add_source(web().at_load(0.6), target=server)
    experiment.track_response_time(
        server, mean_accuracy=accuracy, quantiles={0.95: 0.1}
    )
    return experiment


def run_protocol():
    simulation = ParallelSimulation(
        factory, n_slaves=4, master_seed=11, backend="serial",
        chunk_size=1500,
    )
    master, schemes, targets = simulation._calibrate_master()
    result = simulation.run()
    return master, schemes, targets, result


def test_fig3_protocol_steps(benchmark):
    master, schemes, targets, result = benchmark.pedantic(
        run_protocol, rounds=1, iterations=1
    )
    # 1-2) Master calibrated and produced a bin scheme per metric.
    assert set(schemes) == {"response_time"}
    assert master.stats["response_time"].histogram is not None

    # 3-4) Slaves get unique seeds and the master's scheme imposed.
    seeds = [derive_seed(11, i) for i in range(4)]
    assert len(set(seeds)) == 4
    slave = build_slave_experiment(factory, {}, seeds[0], schemes)
    assert slave.stats["response_time"].fixed_scheme is not None

    # 5-6) Measurement merged into a converged aggregate estimate.
    assert result.converged
    assert result.total_accepted >= 100
    estimate = result["response_time"]
    assert estimate.mean is not None

    save_rows(
        "fig3_protocol",
        ["step", "value"],
        [
            ("master_events", result.master_events),
            ("n_slaves", result.n_slaves),
            ("rounds", result.rounds),
            ("aggregate_accepted", result.total_accepted),
            ("merged_mean_s", estimate.mean),
            ("merged_p95_s", estimate.quantiles[0.95]),
        ],
    )


def test_fig3_slaves_contribute_evenly():
    simulation = ParallelSimulation(
        factory, n_slaves=3, master_seed=13, backend="serial",
        chunk_size=1000,
    )
    result = simulation.run()
    # Round-robin chunks: slave event counts within 2x of each other.
    assert max(result.slave_events) <= 2 * min(result.slave_events)
