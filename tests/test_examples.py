"""Smoke tests: the shipped examples must actually run.

Each example is imported as a module and its ``main`` (or demo
functions) executed in-process.  Only the fast examples run here; the
heavyweight sweeps (google_search_power, dreamweaver_idleness,
power_capping, parallel_speedup, diurnal_datacenter) are exercised
implicitly by the benchmark suite, which runs the same case-study code.
"""

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def load_example(name):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        module = load_example("quickstart")
        module.mm1_demo()
        out = capsys.readouterr().out
        assert "M/M/1" in out
        assert "converged = True" in out

    def test_config_driven(self, capsys):
        module = load_example("config_driven")
        module.main()
        out = capsys.readouterr().out
        assert "response_time" in out
        assert "converged=True" in out

    def test_three_tier(self, capsys):
        module = load_example("three_tier_service")
        module.main()
        out = capsys.readouterr().out
        assert "end-to-end latency" in out
        assert "converged=True" in out

    def test_all_examples_importable(self):
        """Every example at least parses and imports cleanly."""
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            load_example(path.stem)

    def test_package_docstring_quickstart(self, capsys):
        """The block under ``Quickstart::`` in ``repro.__doc__``, as written."""
        import repro

        block = repro.__doc__.split("Quickstart::", 1)[1]
        block = block.split("Package map", 1)[0]
        exec(compile(textwrap.dedent(block), "<repro.__doc__>", "exec"), {})
        # M/M/1 at lambda = 10, mu = 20: E[T] = 1 / (mu - lambda) = 0.1.
        assert float(capsys.readouterr().out) == pytest.approx(0.1, rel=0.1)
