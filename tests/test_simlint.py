"""simlint: seeded positive/negative cases per rule, suppressions, CLI.

Each rule gets at least one snippet that must fire and one that must
stay silent, exercised through :func:`lint_source` with an explicit
``rel`` path (rules scope on it).  The suite ends with the whole-tree
assertion CI relies on: the repository's own ``src`` and ``tests`` are
lint-clean.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, LintError, lint_paths, lint_source
from repro.analysis.cli import main as simlint_main
from repro.analysis.linter import relative_module_path

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings_for(source, rel="datacenter/example.py", **kwargs):
    return lint_source(textwrap.dedent(source), rel=rel, **kwargs)


def rule_ids(findings):
    return [finding.rule for finding in findings]


class TestGlobalRngRule:
    def test_import_random_fires(self):
        findings = findings_for("import random\n")
        assert rule_ids(findings) == ["global-rng"]

    def test_from_random_import_fires(self):
        findings = findings_for("from random import choice\n")
        assert rule_ids(findings) == ["global-rng"]

    def test_default_rng_call_fires(self):
        findings = findings_for(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert rule_ids(findings) == ["global-rng"]

    def test_numpy_module_level_draw_fires(self):
        findings = findings_for(
            """
            import numpy
            x = numpy.random.exponential(1.0)
            """
        )
        assert rule_ids(findings) == ["global-rng"]

    def test_generator_rewrap_allowed(self):
        # Re-wrapping an existing bit generator adds no entropy source.
        findings = findings_for(
            """
            import numpy as np
            def clone(bits):
                return np.random.Generator(bits)
            """
        )
        assert findings == []

    def test_whitelisted_module_allowed(self):
        findings = findings_for(
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            rel="engine/simulation.py",
        )
        assert findings == []

    def test_tests_are_exempt(self):
        findings = findings_for(
            "import numpy as np\nrng = np.random.default_rng(7)\n",
            rel="tests/test_example.py",
        )
        assert findings == []

    def test_threaded_generator_usage_clean(self):
        findings = findings_for(
            """
            def sample(rng):
                return rng.exponential(1.0)
            """
        )
        assert findings == []


class TestWallClockRule:
    def test_time_time_fires_in_engine(self):
        findings = findings_for(
            "import time\nstamp = time.time()\n", rel="engine/example.py"
        )
        assert rule_ids(findings) == ["wall-clock"]

    def test_datetime_now_fires_in_datacenter(self):
        findings = findings_for(
            """
            import datetime
            stamp = datetime.datetime.now()
            """,
            rel="datacenter/example.py",
        )
        assert rule_ids(findings) == ["wall-clock"]

    def test_perf_counter_allowed(self):
        # perf_counter measures a run's wall time; it never drives
        # simulated behaviour.
        findings = findings_for(
            "import time\nstarted = time.perf_counter()\n",
            rel="engine/example.py",
        )
        assert findings == []

    def test_outside_scope_allowed(self):
        findings = findings_for(
            "import time\nstamp = time.time()\n", rel="workloads/example.py"
        )
        assert findings == []


class TestPrefetchContractRule:
    def test_override_without_declaration_fires(self):
        findings = findings_for(
            """
            class Sneaky(Distribution):
                def sample(self, rng):
                    return 1.0
                def sample_many(self, rng, n):
                    return [1.0] * n
            """
        )
        assert rule_ids(findings) == ["prefetch-contract"]

    def test_missing_sample_fires_too(self):
        findings = findings_for(
            """
            class HalfBaked(Distribution):
                def sample_many(self, rng, n):
                    return [1.0] * n
            """
        )
        assert sorted(rule_ids(findings)) == [
            "prefetch-contract",
            "prefetch-contract",
        ]

    def test_class_attribute_declaration_passes(self):
        findings = findings_for(
            """
            class Honest(Distribution):
                prefetch_safe = True
                def sample(self, rng):
                    return 1.0
                def sample_many(self, rng, n):
                    return [1.0] * n
            """
        )
        assert findings == []

    def test_property_declaration_passes(self):
        findings = findings_for(
            """
            class Derived(Scaled):
                @property
                def prefetch_safe(self):
                    return self.base.prefetch_safe
                def sample(self, rng):
                    return 1.0
                def sample_many(self, rng, n):
                    return [1.0] * n
            """
        )
        assert findings == []

    def test_inheritance_chain_recognized(self):
        # Distribution-ness propagates through in-module bases.
        findings = findings_for(
            """
            class Intermediate(Distribution):
                pass

            class Leaf(Intermediate):
                def sample(self, rng):
                    return 1.0
                def sample_many(self, rng, n):
                    return [1.0] * n
            """
        )
        assert rule_ids(findings) == ["prefetch-contract"]

    def test_unrelated_class_ignored(self):
        findings = findings_for(
            """
            class NotADistribution:
                def sample_many(self, rng, n):
                    return [1.0] * n
            """
        )
        assert findings == []


class TestEventMutationRule:
    def test_ev_slot_assignment_fires(self):
        findings = findings_for("event[EV_STATE] = CANCELLED\n")
        assert rule_ids(findings) == ["event-mutation"]

    def test_state_constant_store_fires(self):
        findings = findings_for("record[4] = FIRED\n")
        assert rule_ids(findings) == ["event-mutation"]

    def test_augassign_fires(self):
        findings = findings_for("event[EV_TIME] += 1.0\n")
        assert rule_ids(findings) == ["event-mutation"]

    def test_engine_files_exempt(self):
        for rel in ("engine/events.py", "engine/simulation.py"):
            findings = findings_for("event[EV_STATE] = CANCELLED\n", rel=rel)
            assert findings == []

    def test_plain_subscript_store_allowed(self):
        findings = findings_for("table[key] = value\n")
        assert findings == []


class TestFloatTimeEqRule:
    def test_now_equality_fires(self):
        findings = findings_for(
            "def f(sim, t):\n    return sim.now == t\n"
        )
        assert rule_ids(findings) == ["float-time-eq"]

    def test_not_equals_fires(self):
        findings = findings_for(
            "def f(job):\n    return job.finish_time != job.arrival_time\n"
        )
        assert rule_ids(findings) == ["float-time-eq"]

    def test_none_sentinel_allowed(self):
        findings = findings_for(
            "def f(job):\n    return job.start_time == None\n"
        )
        assert findings == []

    def test_pytest_approx_allowed(self):
        findings = findings_for(
            "def f(sim):\n    assert sim.now == pytest.approx(5.0)\n",
            rel="tests/test_example.py",
        )
        assert findings == []

    def test_ordering_comparisons_allowed(self):
        findings = findings_for(
            "def f(sim, t):\n    return sim.now >= t\n"
        )
        assert findings == []


class TestTraceInHotLoopRule:
    def test_unguarded_loop_emit_fires(self):
        findings = findings_for(
            """
            def run(self):
                while True:
                    self._tracer.counter("events", 1, component="engine")
            """,
            rel="engine/simulation.py",
        )
        assert rule_ids(findings) == ["trace-in-hot-loop"]

    def test_for_loop_local_tracer_fires(self):
        findings = findings_for(
            """
            def drain(tracer, jobs):
                for job in jobs:
                    tracer.event("job", component="engine")
            """,
            rel="core/example.py",
        )
        assert rule_ids(findings) == ["trace-in-hot-loop"]

    def test_guarded_emit_allowed(self):
        findings = findings_for(
            """
            def run(self):
                tracer = self._tracer
                while True:
                    if tracer is not None:
                        tracer.counter("events", 1, component="engine")
            """,
            rel="engine/simulation.py",
        )
        assert findings == []

    def test_enabled_guard_allowed(self):
        findings = findings_for(
            """
            def run(tracer, jobs):
                for job in jobs:
                    if tracer.enabled:
                        tracer.event("job", component="engine")
            """,
            rel="core/example.py",
        )
        assert findings == []

    def test_guard_does_not_leak_to_else(self):
        findings = findings_for(
            """
            def run(tracer, jobs):
                for job in jobs:
                    if tracer is None:
                        pass
                    else:
                        tracer.event("job", component="engine")
            """,
            rel="core/example.py",
        )
        # A lexical rule cannot tell `is None` from `is not None`; both
        # branches count as guarded by a tracer-mentioning test.
        assert findings == []

    def test_emit_outside_loop_allowed(self):
        findings = findings_for(
            """
            def finish(self):
                self._tracer.event("done", component="statistic")
            """,
            rel="core/statistic.py",
        )
        assert findings == []

    def test_boundary_layers_exempt(self):
        findings = findings_for(
            """
            def rounds(tracer, reports):
                for report in reports:
                    tracer.event("report", component="slave")
            """,
            rel="parallel/master.py",
        )
        assert findings == []

    def test_nested_def_resets_loop_context(self):
        findings = findings_for(
            """
            def outer(tracer, jobs):
                for job in jobs:
                    def callback():
                        tracer.event("cb", component="engine")
            """,
            rel="engine/example.py",
        )
        assert findings == []


class TestScalarSampleLoopRule:
    def test_sample_in_for_loop_fires(self):
        findings = findings_for(
            """
            def drive(dist, rng, n):
                out = []
                for _ in range(n):
                    out.append(dist.sample(rng))
                return out
            """
        )
        assert rule_ids(findings) == ["scalar-sample-loop"]

    def test_sample_in_while_loop_fires(self):
        findings = findings_for(
            """
            def drain(dist, rng):
                total = 0.0
                while total < 10.0:
                    total += dist.sample(rng)
                return total
            """
        )
        assert rule_ids(findings) == ["scalar-sample-loop"]

    def test_sample_in_comprehension_fires(self):
        findings = findings_for(
            """
            def draws(dist, rng, n):
                return [dist.sample(rng) for _ in range(n)]
            """
        )
        assert rule_ids(findings) == ["scalar-sample-loop"]

    def test_single_draw_outside_loop_allowed(self):
        # One draw per event is the event engine's legitimate pattern.
        findings = findings_for(
            """
            def emit(dist, rng):
                return dist.sample(rng)
            """
        )
        assert findings == []

    def test_self_sample_reference_loop_allowed(self):
        # A distribution's own per-draw fallback is the draw-order
        # reference, not a missed vectorization.
        findings = findings_for(
            """
            class Custom:
                def sample_many(self, rng, n):
                    return [self.sample(rng) for _ in range(n)]
            """,
            rel="distributions/custom.py",
        )
        assert findings == []

    def test_block_draw_in_loop_allowed(self):
        findings = findings_for(
            """
            def drive(dist, rng, blocks, n):
                out = []
                for _ in range(blocks):
                    out.extend(dist.sample_block(rng, n))
                return out
            """
        )
        assert findings == []

    def test_tests_are_exempt(self):
        findings = findings_for(
            """
            def cross_check(dist, rng, n):
                return [dist.sample(rng) for _ in range(n)]
            """,
            rel="tests/test_example.py",
        )
        assert findings == []

    def test_suppression_comment_respected(self):
        findings = findings_for(
            "def f(dist, rng, n):\n"
            "    out = []\n"
            "    for _ in range(n):\n"
            "        out.append(dist.sample(rng))"
            "  # simlint: disable=scalar-sample-loop\n"
            "    return out\n"
        )
        assert findings == []


class TestParallelLambdaRule:
    def test_lambda_in_parallel_package_fires(self):
        findings = findings_for(
            "callback = lambda: None\n", rel="parallel/example.py"
        )
        assert rule_ids(findings) == ["parallel-lambda"]

    def test_lambda_in_send_payload_fires(self):
        findings = findings_for(
            "def f(pipe):\n    pipe.send((\"chunk\", lambda: 1))\n"
        )
        assert rule_ids(findings) == ["parallel-lambda"]

    def test_lambda_elsewhere_allowed(self):
        findings = findings_for("callback = lambda: None\n")
        assert findings == []


class TestSwallowExceptionRule:
    def test_bare_except_fires(self):
        findings = findings_for(
            """\
            def f():
                try:
                    work()
                except:
                    pass
            """,
            rel="parallel/example.py",
        )
        assert rule_ids(findings) == ["swallow-exception"]

    def test_broad_except_dropping_exception_fires(self):
        findings = findings_for(
            """\
            def f():
                try:
                    work()
                except Exception:
                    return None
            """,
            rel="faults/example.py",
        )
        assert rule_ids(findings) == ["swallow-exception"]

    def test_broad_except_in_tuple_fires(self):
        findings = findings_for(
            """\
            def f():
                try:
                    work()
                except (OSError, Exception):
                    pass
            """,
            rel="parallel/example.py",
        )
        assert rule_ids(findings) == ["swallow-exception"]

    def test_reraise_allowed(self):
        findings = findings_for(
            """\
            def f():
                try:
                    work()
                except Exception:
                    cleanup()
                    raise
            """,
            rel="parallel/example.py",
        )
        assert findings == []

    def test_recording_the_exception_allowed(self):
        findings = findings_for(
            """\
            def f(causes):
                try:
                    work()
                except Exception as error:
                    causes[0] = f"send failed: {error}"
            """,
            rel="parallel/example.py",
        )
        assert findings == []

    def test_narrow_except_allowed(self):
        findings = findings_for(
            """\
            def f():
                try:
                    pipe.close()
                except (BrokenPipeError, OSError):
                    pass
            """,
            rel="parallel/example.py",
        )
        assert findings == []

    def test_out_of_scope_package_allowed(self):
        findings = findings_for(
            """\
            def f():
                try:
                    work()
                except Exception:
                    pass
            """,
            rel="workloads/example.py",
        )
        assert findings == []


class TestSuppressions:
    def test_same_line_suppression(self):
        findings = findings_for(
            "import random  # simlint: disable=global-rng\n"
        )
        assert findings == []

    def test_comma_separated_ids(self):
        findings = findings_for(
            "import random  # simlint: disable=wall-clock, global-rng\n"
        )
        assert findings == []

    def test_disable_all(self):
        findings = findings_for(
            "import random  # simlint: disable=all\n"
        )
        assert findings == []

    def test_wrong_id_does_not_suppress(self):
        findings = findings_for(
            "import random  # simlint: disable=wall-clock\n"
        )
        assert rule_ids(findings) == ["global-rng"]

    def test_multiline_statement_suppressed_on_any_line(self):
        # The finding anchors at the class but the marker may sit on any
        # physical line the node spans.
        findings = findings_for(
            """
            class Sneaky(Distribution):
                def sample(self, rng):
                    return 1.0
                def sample_many(self, rng, n):
                    # simlint: disable=prefetch-contract
                    return [1.0] * n
            """
        )
        assert findings == []


class TestSelectDisable:
    SOURCE = "import random\nevent[EV_STATE] = FIRED\n"

    def test_select_narrows(self):
        findings = findings_for(self.SOURCE, select=["global-rng"])
        assert rule_ids(findings) == ["global-rng"]

    def test_disable_removes(self):
        findings = findings_for(self.SOURCE, disable=["global-rng"])
        assert rule_ids(findings) == ["event-mutation"]

    def test_unknown_rule_id_raises(self):
        with pytest.raises(LintError):
            findings_for(self.SOURCE, select=["no-such-rule"])

    def test_syntax_error_raises(self):
        with pytest.raises(LintError):
            findings_for("def broken(:\n")


class TestRelativeModulePath:
    def test_repro_package_paths(self):
        assert (
            relative_module_path(Path("src/repro/engine/simulation.py"))
            == "engine/simulation.py"
        )

    def test_test_paths(self):
        assert (
            relative_module_path(Path("/root/repo/tests/test_foo.py"))
            == "tests/test_foo.py"
        )

    def test_other_paths_fall_back_to_basename(self):
        assert relative_module_path(Path("scripts/tool.py")) == "tool.py"


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert simlint_main([str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one_text(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import random\n")
        assert simlint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "global-rng" in out
        assert "dirty.py:1:" in out

    def test_findings_json_shape(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import random\n")
        assert simlint_main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"version", "files_scanned", "findings"}
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "global-rng"
        assert finding["line"] == 1

    def test_missing_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert simlint_main([str(missing)]) == 2
        assert "error" in capsys.readouterr().err

    def test_list_rules_covers_registry(self, capsys):
        assert simlint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_docs_catalog_lists_every_rule(self, capsys):
        assert simlint_main(["--list-rules"]) == 0
        listed = [
            line.split()[0] for line in capsys.readouterr().out.splitlines()
        ]
        assert len(listed) > len(RULES)  # whole-program + model-lint too
        docs = (REPO_ROOT / "docs" / "analysis.md").read_text()
        assert [
            rule_id for rule_id in listed if f"`{rule_id}`" not in docs
        ] == []

    def test_rule_registry_complete(self):
        assert set(RULES) == {
            "global-rng",
            "wall-clock",
            "prefetch-contract",
            "event-mutation",
            "float-time-eq",
            "trace-in-hot-loop",
            "swallow-exception",
            "scalar-sample-loop",
            "parallel-lambda",
            "blocking-sleep-in-transport",
            "restricted-name",
        }


class TestWholeTree:
    def test_repository_is_lint_clean(self):
        """The acceptance gate: our own src + tests carry no findings."""
        findings, scanned = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests"]
        )
        assert scanned > 100
        assert findings == [], "\n".join(
            f"{finding.location()}: {finding.rule}: {finding.message}"
            for finding in findings
        )


class TestExitCodes:
    """The contract CI relies on: 0 clean, 1 findings, 2 errors."""

    def test_clean_is_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert simlint_main([str(target)]) == 0

    def test_findings_are_one(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import random\n")
        assert simlint_main([str(target)]) == 1

    def test_parse_error_is_two(self, tmp_path, capsys):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        assert simlint_main([str(target)]) == 2
        assert "error" in capsys.readouterr().err

    def test_internal_crash_is_two_not_zero(self, tmp_path, capsys,
                                            monkeypatch):
        # An analyzer bug must never masquerade as a clean pass.
        import repro.analysis.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("analyzer bug")

        monkeypatch.setattr(cli_module, "run_rules", boom)
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert simlint_main([str(target)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_unknown_rule_id_is_two(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert simlint_main([str(target), "--select", "no-such"]) == 2


#: One minimal firing snippet per registered rule: (source, rel).
FIRING_SNIPPETS = {
    "global-rng": ("import random\n", "datacenter/example.py"),
    "wall-clock": (
        "import time\nstamp = time.time()\n", "engine/example.py"
    ),
    "prefetch-contract": (
        textwrap.dedent(
            """
            class Sneaky(Distribution):
                def sample(self, rng):
                    return 1.0
                def sample_many(self, rng, n):
                    return [1.0] * n
            """
        ),
        "distributions/example.py",
    ),
    "event-mutation": (
        "event[EV_STATE] = CANCELLED\n", "datacenter/example.py"
    ),
    "float-time-eq": (
        "def f(sim, t):\n    return sim.now == t\n",
        "datacenter/example.py",
    ),
    "trace-in-hot-loop": (
        textwrap.dedent(
            """
            def run(self):
                while True:
                    self._tracer.counter("events", 1, component="engine")
            """
        ),
        "engine/example.py",
    ),
    "swallow-exception": (
        textwrap.dedent(
            """
            def f():
                try:
                    work()
                except Exception:
                    pass
            """
        ),
        "parallel/example.py",
    ),
    "scalar-sample-loop": (
        textwrap.dedent(
            """
            def f(dist, rng, n):
                out = []
                for _ in range(n):
                    out.append(dist.sample(rng))
                return out
            """
        ),
        "datacenter/example.py",
    ),
    "parallel-lambda": (
        "callback = lambda x: x\n", "parallel/example.py"
    ),
    "blocking-sleep-in-transport": (
        "import time\n\n\ndef waiter():\n    time.sleep(1.0)\n",
        "parallel/example.py",
    ),
    # One use per row of the restricted-name table.
    "restricted-name": (
        textwrap.dedent(
            """
            import asyncio
            from repro.distributions import prefetch
            value = eval("1")
            sampler = prefetch.PrefetchSampler(dist, rng)
            """
        ),
        "datacenter/example.py",
    ),
}


def suppress_at_reported_lines(source, findings, rule_id):
    """Append a disable comment on each finding's start line."""
    lines = source.splitlines()
    for finding in findings:
        position = finding.line - 1
        lines[position] += f"  # simlint: disable={rule_id}"
    return "\n".join(lines) + "\n"


class TestEveryRuleSuppressible:
    def test_matrix_covers_registry(self):
        assert set(FIRING_SNIPPETS) == set(RULES)

    @pytest.mark.parametrize("rule_id", sorted(FIRING_SNIPPETS))
    def test_disable_comment_silences_rule(self, rule_id):
        source, rel = FIRING_SNIPPETS[rule_id]
        findings = lint_source(source, rel=rel, select=[rule_id])
        assert findings, f"{rule_id} snippet failed to fire"
        assert all(finding.rule == rule_id for finding in findings)
        silenced = suppress_at_reported_lines(source, findings, rule_id)
        assert lint_source(silenced, rel=rel, select=[rule_id]) == []

    @pytest.mark.parametrize("rule_id", sorted(FIRING_SNIPPETS))
    def test_disable_all_silences_rule(self, rule_id):
        source, rel = FIRING_SNIPPETS[rule_id]
        findings = lint_source(source, rel=rel, select=[rule_id])
        silenced = suppress_at_reported_lines(source, findings, "all")
        assert lint_source(silenced, rel=rel, select=[rule_id]) == []

    def test_suppression_inside_decorated_def(self):
        source = textwrap.dedent(
            """
            @decorator
            def f(dist, rng, n):
                out = []
                for _ in range(n):
                    out.append(dist.sample(rng))
                return out
            """
        )
        findings = lint_source(source, rel="datacenter/example.py")
        assert rule_ids(findings) == ["scalar-sample-loop"]
        silenced = suppress_at_reported_lines(
            source, findings, "scalar-sample-loop"
        )
        assert lint_source(silenced, rel="datacenter/example.py") == []

    def test_suppression_on_multi_line_statement(self):
        # The finding spans several lines; a disable comment anywhere
        # in the span (here: the last line) must silence it.
        source = (
            "import time\n"
            "stamp = time.time(\n"
            ")  # simlint: disable=wall-clock\n"
        )
        assert lint_source(source, rel="engine/example.py") == []
        unsuppressed = (
            "import time\n"
            "stamp = time.time(\n"
            ")\n"
        )
        findings = lint_source(unsuppressed, rel="engine/example.py")
        assert rule_ids(findings) == ["wall-clock"]


class TestDeterministicOrder:
    def test_findings_sorted_by_path_line_col_rule(self, tmp_path):
        # Feed the paths in reverse order; output must not care.
        b = tmp_path / "b.py"
        a = tmp_path / "a.py"
        for target in (a, b):
            target.write_text("import random\nimport random as r2\n")
        findings, _ = lint_paths([b, a, tmp_path])
        keys = [
            (f.path, f.line, f.col, f.rule) for f in findings
        ]
        assert keys == sorted(keys)
        # Overlapping path arguments must not duplicate findings.
        assert len(findings) == 4


class TestBlockingSleepInTransportRule:
    def test_sleep_in_parallel_fires(self):
        findings = findings_for(
            "import time\n\n\ndef f():\n    time.sleep(0.5)\n",
            rel="parallel/transport.py",
        )
        assert rule_ids(findings) == ["blocking-sleep-in-transport"]

    def test_sleep_outside_parallel_silent(self):
        findings = findings_for(
            "import time\n\n\ndef f():\n    time.sleep(0.5)\n",
            rel="sweep/runner.py",
        )
        assert "blocking-sleep-in-transport" not in rule_ids(findings)

    def test_asyncio_sleep_is_fine(self):
        # Not a blocking sleep; the import is what the library refuses.
        findings = findings_for(
            textwrap.dedent(
                """
                import asyncio


                async def f():
                    await asyncio.sleep(0.5)
                """
            ),
            rel="parallel/agent.py",
        )
        assert rule_ids(findings) == ["restricted-name"]
        assert "`import asyncio` in library code" in findings[0].message

    def test_timer_and_cond_waits_are_fine(self):
        findings = findings_for(
            textwrap.dedent(
                """
                import threading


                def f(cond, frame, send):
                    timer = threading.Timer(0.5, send, args=(frame,))
                    timer.start()
                    with cond:
                        cond.wait(0.5)
                """
            ),
            rel="parallel/chaos.py",
        )
        assert rule_ids(findings) == []

    def test_parallel_package_keeps_one_suppression(self):
        # Every other wait in repro.parallel goes through
        # Transport.wait, and injected hangs sleep in FaultInjector
        # (repro.faults); a second suppressed sleep means a loop
        # started blocking on its own again.
        marker = "simlint: disable=blocking-sleep-in-transport"
        package = REPO_ROOT / "src" / "repro" / "parallel"
        suppressed = sorted(
            f"{path.name}: {line.split('#')[0].strip()}"
            for path in package.glob("*.py")
            for line in path.read_text().splitlines()
            if marker in line
        )
        assert suppressed == [
            "transport.py: time.sleep(timeout)",     # wait() on no endpoints
        ]


class TestRestrictedNameRule:
    def test_builtin_exec_eval_compile_fire(self):
        findings = findings_for(
            "exec(code)\nx = eval('1')\nc = compile(src, 'f', 'exec')\n",
            rel="core/statistic.py",
        )
        assert rule_ids(findings) == ["restricted-name"] * 3
        assert all("built from text" in f.message for f in findings)

    def test_method_named_compile_is_not_the_builtin(self):
        findings = findings_for(
            "import re\npattern = re.compile('x+')\n",
            rel="core/statistic.py",
        )
        assert rule_ids(findings) == []

    def test_tests_may_exec(self):
        findings = findings_for(
            "exec(compile(block, '<doc>', 'exec'), {})\n",
            rel="tests/test_examples.py",
        )
        assert rule_ids(findings) == []

    def test_sampler_built_outside_its_homes_fires(self):
        for call in ("PrefetchSampler(d, rng)",
                     "prefetch.PrefetchSampler(d, rng)"):
            findings = findings_for(
                f"sampler = {call}\n", rel="datacenter/server.py"
            )
            assert rule_ids(findings) == ["restricted-name"], call
            assert "Simulation.sampler" in findings[0].message

    @pytest.mark.parametrize("home", [
        "distributions/prefetch.py",
        "engine/simulation.py",
        "workloads/generator.py",
    ])
    def test_sampler_homes_may_build_it(self, home):
        findings = findings_for(
            "sampler = PrefetchSampler(d, rng)\n", rel=home
        )
        assert rule_ids(findings) == []

    def test_sampler_name_in_text_is_not_a_call(self):
        findings = findings_for(
            "from repro.distributions.prefetch import PrefetchSampler\n"
            "label = f'PrefetchSampler({d!r})'\n"
            "slot: PrefetchSampler = None\n",
            rel="datacenter/server.py",
        )
        assert rule_ids(findings) == []

    def test_from_asyncio_import_fires(self):
        findings = findings_for(
            "from asyncio import sleep\nimport asyncio.subprocess\n",
            rel="parallel/transport.py",
        )
        assert rule_ids(findings) == ["restricted-name"] * 2

    def test_relative_import_of_same_name_is_silent(self):
        findings = findings_for(
            "from . import asyncio\n", rel="parallel/transport.py"
        )
        assert rule_ids(findings) == []
