"""Fig. 2 — the four-phase simulation sequence of one output metric.

The figure illustrates warm-up (observations discarded), calibration
(lag spacing + histogram binning determined), measurement (every l-th
observation kept), and convergence.  This benchmark drives a queueing
metric through the full sequence, records the phase boundaries in
observation counts, and asserts the structural properties the figure
encodes (discarded warm-up, l-spaced acceptance, convergence at the
Eq. 2-3 sample size).
"""

import pytest

from conftest import save_rows
from repro import Experiment, Server
from repro.core.statistic import Phase
from repro.workloads import web


def drive_phases(seed=5):
    experiment = Experiment(seed=seed, warmup_samples=500,
                            calibration_samples=3000)
    server = Server(cores=1)
    experiment.add_source(web().at_load(0.6), target=server)
    experiment.track_response_time(
        server, mean_accuracy=0.05, quantiles={0.95: 0.1}
    )
    statistic = experiment.stats["response_time"]

    transitions = {}
    phase = statistic.phase

    def watch(job, srv):
        nonlocal phase
        if statistic.phase is not phase:
            transitions[statistic.phase.value] = statistic.observed
            phase = statistic.phase

    server.on_complete(watch)
    result = experiment.run()
    return experiment, statistic, transitions, result


def test_fig2_phase_sequence(benchmark):
    experiment, statistic, transitions, result = benchmark.pedantic(
        drive_phases, rounds=1, iterations=1
    )
    # Phases occurred in order, at the right observation counts (the
    # transition happens inside the Nw-th / Nc-th observe call).
    assert transitions["calibration"] == 500
    assert transitions["measurement"] == pytest.approx(500 + 3000, abs=2)
    assert "converged" in transitions
    assert statistic.phase is Phase.CONVERGED

    # Warm-up and calibration observations never reach the histogram.
    # Counted at the transition: the run stops at its next stop check,
    # and `observed` keeps counting until then.
    expected_accepted = (
        transitions["converged"] - 500 - 3000
    ) // statistic.lag
    assert statistic.accepted == pytest.approx(expected_accepted, abs=2)

    # Convergence happened at the Eq. 2-3 requirement.
    assert statistic.accepted >= statistic.required_sample_size()

    rows = [
        ("warmup_end", 500),
        ("calibration_end", transitions["measurement"]),
        ("lag", statistic.lag),
        ("accepted_at_convergence", statistic.accepted),
        ("total_observed", statistic.observed),
        ("events_processed", result.events_processed),
    ]
    save_rows("fig2_phases", ["milestone", "observations"], rows)


def test_fig2_lag_inflates_event_count():
    """Steady-state length is inflated by the lag factor l (Section 2.3)."""
    _, statistic, _, _ = drive_phases(seed=6)
    measured_events = statistic.observed - 500 - 3000
    assert measured_events >= statistic.lag * statistic.accepted - statistic.lag
