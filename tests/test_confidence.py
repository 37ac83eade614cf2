"""Unit tests for confidence-interval math (Eqs. 1-3)."""

import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.symbols import parse_module
from repro.core.confidence import (
    _ndtri,
    mean_sample_size,
    quantile_sample_size,
    z_value,
)
from repro.core.convergence import mean_confidence_interval


class TestZValue:
    def test_classic_values(self):
        assert z_value(0.95) == pytest.approx(1.959964, rel=1e-5)
        assert z_value(0.99) == pytest.approx(2.575829, rel=1e-5)
        assert z_value(0.90) == pytest.approx(1.644854, rel=1e-5)

    def test_bounds_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                z_value(bad)

    def test_unrepresentable_tail_is_refused(self):
        # Regression: 1 - alpha/2 rounds to 1.0 here, z came back inf and
        # Eq. 2 asked for infinitely many samples without a word.
        with pytest.raises(ValueError, match="0.9999999999999999"):
            z_value(0.9999999999999999)
        assert math.isfinite(z_value(1.0 - 2.0 ** -52))

    def test_equals_scipy_stats_bit_for_bit(self):
        # src/ evaluates the quantile itself to keep scipy out of every
        # process; the reference may import it.
        from scipy import stats

        levels = list(np.linspace(0.5, 0.9999, 400)) + [0.9, 0.95, 0.99, 0.999]
        for level in levels:
            confidence = float(level)
            alpha = 1.0 - confidence
            assert z_value(confidence) == float(stats.norm.ppf(1.0 - alpha / 2.0))

    def test_ndtri_equals_scipy_special_on_every_branch(self):
        from scipy.special import ndtri

        rng = np.random.default_rng(18)
        tails = 10.0 ** -rng.uniform(1.0, 14.0, 30_000)
        far_tails = 10.0 ** -rng.uniform(14.0, 300.0, 20_000)
        grid = np.concatenate([
            rng.random(60_000), tails, 1.0 - tails, far_tails,
            1.0 - 10.0 ** -rng.uniform(14.0, 15.9, 5_000),
        ])
        grid = grid[(grid > 0.0) & (grid < 1.0)]
        assert grid.size >= 100_000
        folded = np.where(grid > 1.0 - math.exp(-2.0), 1.0 - grid, grid)
        radius = np.sqrt(-2.0 * np.log(folded))
        central = folded > math.exp(-2.0)
        for branch in (central, ~central & (radius < 8.0), radius >= 8.0):
            assert np.count_nonzero(branch) >= 20_000
        ours = np.array([_ndtri(p) for p in grid.tolist()])
        assert np.array_equal(ours, ndtri(grid))


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def import_listing(argv):
    """Each module import ``python *argv`` makes on this checkout, in
    every process it forks, from ``-X importtime``'s listing."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    listing = [line.rsplit("|", 1)[-1].strip()
               for line in done.stderr.splitlines()
               if line.startswith("import time:")]
    assert "repro" in listing  # the listing sees this package at all
    return listing


def imported_modules(argv):
    """Every module ``python *argv`` imports on this checkout, at any
    point of its life."""
    return set(import_listing(argv))


#: Three complete runs — event engine, fast path, serial-backend
#: parallel — checked converged, then ``sys.modules`` is inspected.
RUNS_TO_CONVERGENCE = """
import sys
from repro import Experiment, Server, Workload
from repro.distributions import Exponential
from repro.parallel import ParallelSimulation

def build(seed, cores=1, engine="event"):
    experiment = Experiment(seed=seed, warmup_samples=200,
                            calibration_samples=1000, engine=engine)
    server = Server(cores=cores)
    workload = Workload("w", interarrival=Exponential(rate=10.0),
                        service=Exponential(rate=20.0 / cores))
    experiment.add_source(workload, target=server)
    experiment.track_response_time(server, mean_accuracy=0.1)
    return experiment

event = build(3).run()
fast = build(4, cores=4, engine="fastpath").run()
merged = ParallelSimulation(build, n_slaves=2, master_seed=5,
                            chunk_size=500, backend="serial").run()
assert event.converged and fast.converged and merged.converged
assert "engine" not in event.extras and fast.extras["engine"] == "fastpath"
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""

#: One model, run to convergence on the engine named by ``sys.argv[1]``.
SINGLE_RUN = """
import sys
from repro import Experiment, Server, Workload
from repro.distributions import Exponential

engine = sys.argv[1]
cores = 4 if engine == "fastpath" else 1
experiment = Experiment(seed=3, warmup_samples=200, calibration_samples=1000,
                        engine=engine)
server = Server(cores=cores)
workload = Workload("w", interarrival=Exponential(rate=10.0),
                    service=Exponential(rate=20.0 / cores))
experiment.add_source(workload, target=server)
experiment.track_response_time(server, mean_accuracy=0.1)
result = experiment.run()
assert result.converged
assert result.extras.get("engine") == ("fastpath" if cores > 1 else None)
"""

#: A two-slave run on the process backend.  Each forked slave first
#: writes ``<fork>`` into ``-X importtime``'s listing on stderr.
FORKED_RUN = """
import os
os.register_at_fork(
    after_in_child=lambda: os.write(2, b"import time: 0 | 0 | <fork>\\n"))

from repro import Experiment, Server, Workload
from repro.distributions import Exponential
from repro.parallel import ParallelSimulation

def build(seed):
    experiment = Experiment(seed=seed, warmup_samples=200,
                            calibration_samples=1000)
    server = Server(cores=1)
    workload = Workload("w", interarrival=Exponential(rate=10.0),
                        service=Exponential(rate=20.0))
    experiment.add_source(workload, target=server)
    experiment.track_response_time(server, mean_accuracy=0.1)
    return experiment

assert ParallelSimulation(build, n_slaves=2, master_seed=5, chunk_size=500,
                          backend="process").run().converged
"""

#: What a single-process run never needs: the parallel stack, the fault
#: machinery, the datacenter models it does not build, the estimators it
#: does not use, and the tools around the simulator.
NOT_IN_A_RUN = (
    "repro.parallel", "repro.faults.checkpoint", "repro.faults.injector",
    "repro.faults.plan", "repro.datacenter.cluster",
    "repro.datacenter.multiclass", "repro.datacenter.network",
    "repro.datacenter.srpt", "repro.datacenter.closedloop",
    "repro.core.batch_means", "repro.core.warmup", "repro.sweep",
    "repro.analysis", "repro.observability",
)


def package_names():
    """``repro`` and every package under it."""
    root = os.path.join(SRC, "repro")
    return ["repro"] + sorted(
        f"repro.{entry}" for entry in os.listdir(root)
        if os.path.isfile(os.path.join(root, entry, "__init__.py"))
    )


def within(module, prefixes):
    return any(module == p or module.startswith(p + ".") for p in prefixes)


class TestStartUp:
    """No process this package starts ever loads scipy."""

    @pytest.mark.parametrize("argv", [
        ["-c", "import repro"],
        ["-c", "import repro.parallel"],
        ["-m", "repro", "--help"],
        ["-c", RUNS_TO_CONVERGENCE],
    ], ids=["-c import repro", "-c import repro.parallel", "-m repro --help",
            "runs to convergence"])
    def test_scipy_is_not_imported(self, argv):
        modules = imported_modules(argv)
        assert not [m for m in modules if m.split(".")[0] == "scipy"]

    def test_help_does_not_import_the_parallel_package(self):
        modules = imported_modules(["-m", "repro", "--help"])
        assert not [m for m in modules if m.startswith("repro.parallel")]

    @pytest.mark.parametrize("engine", ["event", "fastpath"])
    def test_a_run_loads_only_what_it_uses(self, engine):
        modules = imported_modules(["-c", SINGLE_RUN, engine])
        assert "repro.engine.experiment" in modules
        assert not sorted(m for m in modules if within(m, NOT_IN_A_RUN))

    def test_importing_the_master_loads_no_transport(self):
        modules = imported_modules(
            ["-c", "from repro.parallel import ParallelSimulation"])
        assert "repro.parallel.master" in modules
        assert not sorted(modules & {
            "repro.parallel.transport", "repro.parallel.pool",
            "repro.parallel.chaos", "repro.faults.checkpoint",
        })

    def test_forked_slaves_import_nothing(self):
        # The master loads what a slave uses before it forks the first.
        listing = import_listing(["-c", FORKED_RUN])
        forked = listing.index("<fork>")
        assert "repro.parallel.transport" in listing[:forked]
        assert not [m for m in listing[forked:] if m.split(".")[0] == "repro"]

    @pytest.mark.parametrize("package", package_names())
    def test_every_export_is_its_defining_modules_object(self, package):
        # The lazy table, read as simlint reads it, names for each export
        # the module whose object a plain `from module import name` gave.
        path = os.path.join(SRC, *package.split("."), "__init__.py")
        with open(path) as handle:
            table = parse_module(handle.read(), path, package).imports
        module = importlib.import_module(package)
        for name in module.__all__:
            if name not in table:  # defined by the package itself
                assert name in vars(module), name
                continue
            home, _, attribute = table[name].rpartition(".")
            assert attribute == name
            assert getattr(module, name) is getattr(
                importlib.import_module(home), name), name
        assert set(module.__all__) <= set(dir(module))
        namespace = {}
        exec(f"from {package} import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(
            module.__all__)


class TestMeanSampleSize:
    def test_eq2_formula(self):
        # Nm = (z * sigma / eps)^2
        n = mean_sample_size(std=2.0, epsilon=0.1, confidence=0.95)
        assert n == pytest.approx((1.959964 * 2.0 / 0.1) ** 2, rel=1e-4)

    def test_quadratic_in_accuracy(self):
        # Halving epsilon quadruples the requirement (the Fig. 8/9 effect).
        n1 = mean_sample_size(1.0, 0.1)
        n2 = mean_sample_size(1.0, 0.05)
        assert n2 == pytest.approx(4.0 * n1)

    def test_quadratic_in_std(self):
        n1 = mean_sample_size(1.0, 0.1)
        n2 = mean_sample_size(3.0, 0.1)
        assert n2 == pytest.approx(9.0 * n1)

    def test_zero_std_needs_nothing(self):
        assert mean_sample_size(0.0, 0.1) == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            mean_sample_size(1.0, 0.0)
        with pytest.raises(ValueError):
            mean_sample_size(-1.0, 0.1)


class TestQuantileSampleSize:
    def test_eq3_formula(self):
        n = quantile_sample_size(q=0.95, epsilon_p=0.01, confidence=0.95)
        z = 1.959964
        assert n == pytest.approx(z * z * 0.95 * 0.05 / 1e-4, rel=1e-4)

    def test_median_needs_most(self):
        # q(1-q) peaks at the median.
        assert quantile_sample_size(0.5, 0.01) > quantile_sample_size(0.95, 0.01)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            quantile_sample_size(0.0, 0.01)
        with pytest.raises(ValueError):
            quantile_sample_size(1.0, 0.01)
        with pytest.raises(ValueError):
            quantile_sample_size(0.5, 0.0)


class TestMeanCI:
    def test_shrinks_with_n(self):
        lo1, hi1 = mean_confidence_interval(10.0, 2.0, 100)
        lo2, hi2 = mean_confidence_interval(10.0, 2.0, 400)
        assert (hi2 - lo2) == pytest.approx((hi1 - lo1) / 2.0)

    def test_centered_on_mean(self):
        lo, hi = mean_confidence_interval(5.0, 1.0, 50)
        assert (lo + hi) / 2.0 == pytest.approx(5.0)

    def test_coverage_on_normal_data(self, rng):
        # ~95% of intervals built from normal samples should cover 0.
        hits = 0
        trials = 200
        for _ in range(trials):
            sample = rng.normal(0.0, 1.0, size=100)
            lo, hi = mean_confidence_interval(
                float(np.mean(sample)), float(np.std(sample)), 100
            )
            hits += lo <= 0.0 <= hi
        assert hits / trials > 0.88

    def test_bad_n(self):
        with pytest.raises(ValueError):
            mean_confidence_interval(0.0, 1.0, 0)
