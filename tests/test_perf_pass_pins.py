"""Pinned smoke replications of the perf benchmark's five workloads.

``tests/fixtures/perf_pass_pins.json`` holds, per workload in
``BENCHMARK.json``, one seeded smoke replication as
``benchmarks/perf/worker.py --workload W --seed 1002 --smoke --mode
pass`` runs it: the digest, events, accepted/observed counts, lags,
whether the interval covered the closed form and the relative error
(``float.hex``), plus rounds and per-slave events for ``par2_process``
and cancelled replicas per job for ``clone_ps_cancel``.  Beside them it
pins two defaults that no caller sets: the host agent's re-dial backoff
delays and the Monte-Carlo moments of ``Truncated``.

``h2cv10_event`` takes seconds, so it runs only under
``REPRO_TEST_FULL=1``.  The test reads ``benchmarks/perf/`` and edits
nothing there.  A change meant to keep every number must leave it
green; ``PYTHONPATH=src python -m tests.test_perf_pass_pins`` re-records
the fixture, only for a change that is meant to move them.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from repro.distributions import Exponential, LogNormal
from repro.distributions.transforms import Truncated
from repro.parallel.agent import HostAgent

PINS_FILE = Path(__file__).parent / "fixtures" / "perf_pass_pins.json"
PERF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
FULL_SCALE = os.environ.get("REPRO_TEST_FULL") == "1"

#: The ``--seed`` of the pinned smoke pass.
PASS_SEED = 1002
WORKLOADS = ("mm1_event", "h2cv10_event", "mm4_fastpath", "clone_ps_cancel",
             "par2_process")
#: Seconds per replication, so tier-1 leaves it to the full run.
SLOW = {"h2cv10_event"}


def load_worker():
    """``benchmarks/perf/worker.py`` as a module (it imports its siblings)."""
    if "perf_worker" in sys.modules:
        return sys.modules["perf_worker"]
    sys.path.insert(0, str(PERF_DIR))
    spec = importlib.util.spec_from_file_location(
        "perf_worker", PERF_DIR / "worker.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_worker"] = module
    spec.loader.exec_module(module)
    return module


def replication(name):
    """The pinned fields of ``name``'s one smoke replication."""
    worker = load_worker()
    spec = worker.SPECS[name]
    seed = worker.replication_seeds(PASS_SEED, name, 1)[0]
    record = worker.replicate(spec, seed, spec.smoke_targets)
    assert record["failed"] is None, record["failed"]
    pinned = {
        "seed": seed,
        "digest": record["digest"],
        "events": record["events"],
        "accepted": record["accepted"],
        "observed": record["observed"],
        "lags": record["lags"],
        "covered": record["covered"],
        "rel_err": record["rel_err"].hex(),
    }
    if name == "par2_process":
        pinned.update(rounds=record["rounds"],
                      slave_events=record["slave_events"])
    if name == "clone_ps_cancel":
        pinned["cancelled_per_job"] = record["cancelled_per_job"].hex()
    return pinned


def redial_delays():
    """``HostAgent._redial_delay`` for slots 0-1 x failures 0-5."""
    agent = HostAgent(("127.0.0.1", 9), backoff_seed=0)
    return [
        [slot, failures, agent._redial_delay(slot, failures).hex()]
        for slot in (0, 1)
        for failures in range(6)
    ]


def truncated_moments():
    """Mean and variance ``Truncated`` estimates for two bases."""
    cases = {
        "exponential_high3": Truncated(Exponential(rate=1.0), high=3.0),
        "lognormal_1_10": Truncated(LogNormal(mu=0.0, sigma=1.0),
                                    low=1.0, high=10.0),
    }
    return {
        name: [dist.mean().hex(), dist.variance().hex()]
        for name, dist in cases.items()
    }


def record():
    return {
        "workloads": {name: replication(name) for name in WORKLOADS},
        "redial_delays": redial_delays(),
        "truncated_moments": truncated_moments(),
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_FILE.read_text())


class TestPinnedPerfPass:
    def test_every_workload_is_pinned(self, pins):
        benchmark = json.loads(
            (PERF_DIR.parents[1] / "BENCHMARK.json").read_text()
        )
        names = [workload["name"] for workload in benchmark["workloads"]]
        assert sorted(pins["workloads"]) == sorted(names) == sorted(WORKLOADS)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replication_equals_recorded_values(self, pins, name):
        if name in SLOW and not FULL_SCALE:
            pytest.skip("set REPRO_TEST_FULL=1")
        assert replication(name) == pins["workloads"][name]

    def test_redial_delays_equal_recorded_values(self, pins):
        assert redial_delays() == pins["redial_delays"]

    def test_truncated_moments_equal_recorded_values(self, pins):
        assert truncated_moments() == pins["truncated_moments"]


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    PINS_FILE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_FILE}")
