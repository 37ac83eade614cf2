"""Tests of the benchmark harness itself.

    python -m pytest benchmarks/perf/tests -q

Not collected by the tier-1 suite (its ``testpaths`` is ``tests``): two
``--smoke`` runs of the whole harness take most of a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parents[1]
sys.path.insert(0, str(PERF))

import compare  # noqa: E402
import fold  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke_run(directory: Path, name: str):
    out = directory / f"{name}.json"
    finished = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--smoke", "--out", str(out),
         "--layers-out", str(directory / f"{name}.layers.md")],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert finished.returncode == 0, finished.stdout
    return finished.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("perf")
    return [smoke_run(directory, name) for name in ("first", "second")]


def test_smoke_run_prints_every_declared_name(smoke_runs):
    output, result = smoke_runs[0]
    assert result["correct"], result["problems"]
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in DECLARED[section]:
            assert run.NAME.fullmatch(entry["name"])
            assert entry["name"] in output, (section, entry["name"])
    for metric in compare.END_TO_END:
        assert metric.name in output
    for workload in run.WORKLOADS:
        assert result["sets"][0][workload]["failed_ops"] == 0
        shares = [entry["value"]
                  for name, entry in result["per_layer"][workload].items()
                  if name.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_seeded_counts_repeat_exactly_between_runs(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for workload in run.WORKLOADS:
        for name in ("events_to_converge", "mean_rel_err", "ci_coverage",
                     "failed_ops"):
            assert (first["sets"][0][workload][name]
                    == second["sets"][0][workload][name]), (workload, name)
        calls = {
            name: entry["value"]
            for name, entry in first["per_layer"][workload].items()
            if name.endswith(".calls")
        }
        assert calls and any(calls.values())
        for name, value in calls.items():
            assert second["per_layer"][workload][name]["value"] == value, (
                workload, name)


def test_failed_replications_are_counted_not_fatal():
    spec = worker.SPECS["mm1_event"]
    seeds = worker.replication_seeds(1, spec.name, 2)

    impossible = dataclasses.replace(spec, tolerance=1e-12)
    record = worker.run_pass(impossible, seeds, spec.smoke_targets)
    assert all("off the closed form" in r["failed"]
               for r in record["replications"])

    def explode(seed, targets):
        if seed == seeds[0]:
            raise ValueError("boom")
        return spec.build(seed, targets)

    record = worker.run_pass(dataclasses.replace(spec, build=explode), seeds,
                             spec.smoke_targets)
    broken, fine = record["replications"]
    assert "ValueError: boom" in broken["failed"]
    assert fine["failed"] is None and fine["converged"]

    record.update(setup_s=1.0, setup_pace=1.0)
    summary = run.summarise([record])
    assert (summary["failed_ops"], summary["ops"]) == (1, 2)
    assert any("boom" in problem
               for problem in run.check_passes(spec.name, [record]))


def test_pacing_cancels_the_speed_of_the_host():
    def one_pass(pace: float) -> dict:
        replication = {"events": 1000, "wall_s": 0.5 * pace,
                       "host_pace": pace, "failed": None, "rel_err": 0.0,
                       "covered": True}
        return {"replications": [replication], "peak_rss_mb": 100.0,
                "setup_s": 1.0 * pace, "setup_pace": pace}

    quiet = run.summarise([one_pass(1.0)])
    slow = run.summarise([one_pass(1.5)], setups=[one_pass(1.5)])
    for name in ("wall_s", "events_per_s", "setup_s"):
        assert slow[name] == pytest.approx(quiet[name]), name
    assert slow["events_per_s_raw"] == pytest.approx(2000 / 1.5)
    assert slow["setup_s_raw"] == pytest.approx(1.5)

    assert worker.host_pace(2) > 0.0  # two forked children, both reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def synthetic_runs(wall: float, jitter: float, count: int = 10,
                   events: int = 1000) -> list:
    """``count`` runs of one workload whose timings wobble by ``jitter``."""
    runs = []
    for index in range(count):
        factor = 1.0 + jitter * ((index % 5) - 2) / 2.0
        runs.append({"w": {
            "wall_s": wall * factor,
            "events_per_s": events / (wall * factor),
            "events_to_converge": events,
            "mean_rel_err": 0.01,
            "ci_coverage": 0.75,
            "ci_coverage_step": 0.25,
            "peak_rss_mb": 100.0,
            "setup_s": 1.0,
            "failed_ops": 0,
        }})
    return runs


def verdicts(parent, change) -> dict:
    return {metric: verdict
            for _, metric, verdict, _ in compare.compare(parent, change)}


def test_compare_tells_gain_regression_and_unresolved():
    parent = synthetic_runs(wall=10.0, jitter=0.02)

    faster = verdicts(parent, synthetic_runs(wall=8.0, jitter=0.02))
    assert faster["wall_s"] == faster["events_per_s"] == "gain"
    assert faster["peak_rss_mb"] == faster["events_to_converge"] == "unchanged"

    slower = verdicts(parent, synthetic_runs(wall=12.0, jitter=0.02))
    assert slower["wall_s"] == slower["events_per_s"] == "regression"

    noisy = verdicts(synthetic_runs(wall=10.0, jitter=0.4),
                     synthetic_runs(wall=10.5, jitter=0.4))
    assert noisy["wall_s"] == noisy["events_per_s"] == "unresolved"

    # Too few pairs can show a regression but never a gain.
    few = verdicts(parent[:3], synthetic_runs(wall=8.0, jitter=0.02, count=3))
    assert few["wall_s"] == "unchanged"

    # Exact counts are compared as counts: 1 % more events is the bound.
    more = verdicts(parent, synthetic_runs(wall=10.0, jitter=0.02, events=1020))
    assert more["events_to_converge"] == "regression"
    fewer = verdicts(parent, synthetic_runs(wall=10.0, jitter=0.02, events=900))
    assert fewer["events_to_converge"] == "gain"


def test_fold_charges_a_builtin_to_the_layer_that_called_it():
    server = ("/x/src/repro/datacenter/server.py", 10, "arrive")
    loop = ("/x/src/repro/engine/simulation.py", 20, "run")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    wrapper = ("/usr/lib/python3/heapq_wrapper.py", 5, "push")
    kernel = ("<fastpath-ggc-kernel-4>", 1, "kernel")
    poll = ("~", 0, "<method 'poll' of 'select.poll' objects>")
    harness = ("/x/benchmarks/perf/worker.py", 1, "replicate")
    stats = {
        harness: (1, 1, 0.5, 10.0, {}),
        loop: (1, 1, 2.0, 9.5, {harness: (1, 1, 2.0, 9.5)}),
        server: (100, 100, 3.0, 6.0, {loop: (100, 100, 3.0, 6.0)}),
        # 4 s of heappush: 1 s straight from the server, 3 s through a
        # foreign wrapper that only the event loop calls.
        heappush: (400, 400, 4.0, 4.0, {server: (100, 100, 1.0, 1.0),
                                        wrapper: (300, 300, 3.0, 3.0)}),
        wrapper: (300, 300, 0.0, 3.0, {loop: (300, 300, 0.0, 3.0)}),
        kernel: (7, 7, 1.0, 1.0, {harness: (7, 7, 1.0, 1.0)}),
        poll: (3, 3, 2.5, 2.5, {server: (3, 3, 2.5, 2.5)}),
    }
    layers = fold.fold(stats)
    assert layers["datacenter.server"] == {"self_s": 4.0, "calls": 100}
    assert layers["engine.simulation"] == {"self_s": 5.0, "calls": 1}
    assert layers["engine.fastpath"] == {"self_s": 1.0, "calls": 7}
    assert layers["wait"]["self_s"] == 2.5
    assert layers["other"]["self_s"] == 0.5
    total = sum(entry[2] for entry in stats.values())
    assert sum(e["self_s"] for e in layers.values()) == pytest.approx(total)
