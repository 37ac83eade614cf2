"""Model lint: configs and SweepSpecs validated against the theory.

Covers each rule id in ``MODEL_RULES`` plus the ``repro run --lint`` /
``repro sweep --lint`` CLI surface and its exit codes (0 clean, 1 any
error-severity finding, 2 unloadable document).
"""

import json
from pathlib import Path

import pytest

from repro.analysis.modellint import (
    MODEL_RULES,
    has_errors,
    lint_config,
    lint_spec,
)
from repro.cli import main as repro_main
from repro.sweep.spec import SweepSpec
from repro.theory import TheoryError, utilization

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_SPEC = REPO_ROOT / "tests" / "fixtures" / "seed_collision_spec.json"
DEMO_SPEC = REPO_ROOT / "examples" / "sweeps" / "lint_demo.toml"

BASE = {
    "warmup_samples": 300,
    "calibration_samples": 2000,
    "workload": {"name": "web"},
    "servers": {"count": 1, "cores": 1},
    "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
}


def rules_of(findings):
    return sorted({f.rule for f in findings})


def make_spec(**overrides):
    fields = dict(
        name="t", kind="config", seed=42, base=BASE,
        axes={"workload.load": [0.3, 0.6]},
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestUtilizationHelper:
    def test_matches_definition(self):
        assert utilization(0.5, 1.0) == pytest.approx(0.5)
        assert utilization(3.0, 1.0, k=2) == pytest.approx(1.5)

    def test_no_stability_gate(self):
        # Unlike the closed forms, rho >= 1 is returned, not raised.
        assert utilization(2.0, 1.0) == pytest.approx(2.0)

    def test_invalid_rates_still_raise(self):
        with pytest.raises(TheoryError):
            utilization(-1.0, 1.0)
        with pytest.raises(TheoryError):
            utilization(1.0, 1.0, k=0)


class TestLintConfig:
    def test_clean_config(self):
        assert lint_config(dict(BASE, workload={"name": "web",
                                                "load": 0.5})) == []

    def test_declared_overload_is_unstable(self):
        findings = lint_config(
            dict(BASE, workload={"name": "web", "load": 1.2})
        )
        assert rules_of(findings) == ["unstable-point"]
        assert findings[0].severity == "error"
        assert "1.200" in findings[0].message

    def test_computed_rho_from_qps(self):
        # web service mean is fixed; drive qps past one core's capacity.
        workload = {"name": "web", "qps": 1e9}
        findings = lint_config(dict(BASE, workload=workload))
        assert rules_of(findings) == ["unstable-point"]

    def test_near_saturation_warns(self):
        findings = lint_config(
            dict(BASE, workload={"name": "web", "load": 0.97})
        )
        assert rules_of(findings) == ["unstable-point"]
        assert findings[0].severity == "warning"
        assert not has_errors(findings)

    def test_cores_pool_scales_load(self):
        # load is per the whole pool (build_experiment semantics).
        config = dict(
            BASE,
            workload={"name": "web", "load": 0.5},
            servers={"count": 4, "cores": 2},
        )
        assert lint_config(config) == []

    def test_unknown_workload_is_spec_error(self):
        findings = lint_config(dict(BASE, workload={"name": "nope"}))
        assert rules_of(findings) == ["spec-error"]

    def test_forced_fastpath_nonqualifying_is_error(self):
        config = dict(
            BASE,
            workload={"name": "web", "load": 0.5},
            servers={"count": 2, "cores": 1},
            engine="fastpath",
        )
        findings = lint_config(config)
        assert rules_of(findings) == ["fastpath-forecast"]
        assert findings[0].severity == "error"
        assert "FastpathError" in findings[0].message

    def test_auto_nonqualifying_is_note(self):
        config = dict(
            BASE,
            workload={"name": "web", "load": 0.5},
            servers={"count": 2, "cores": 1},
        )
        findings = lint_config(config, engine="auto")
        assert rules_of(findings) == ["fastpath-forecast"]
        assert findings[0].severity == "note"

    def test_qualifying_fastpath_is_silent(self):
        config = dict(
            BASE, workload={"name": "web", "load": 0.5}, engine="fastpath"
        )
        assert lint_config(config) == []


class TestLintSpec:
    def test_clean_spec(self):
        assert lint_spec(make_spec()) == []

    def test_unstable_grid_point_flagged(self):
        findings = lint_spec(
            make_spec(axes={"workload.load": [0.5, 1.05]})
        )
        assert rules_of(findings) == ["unstable-point"]
        assert "point 1" in findings[0].message

    def test_duplicate_explicit_seeds_collide(self):
        spec = make_spec(
            axes={},
            grid=({"workload.load": 0.4, "seed": 9},
                  {"workload.load": 0.6, "seed": 9}),
        )
        findings = lint_spec(spec)
        assert "seed-collision" in rules_of(findings)
        assert has_errors(findings)

    def test_explicit_seed_matching_derived_seed_collides(self):
        probe = make_spec(axes={"workload.load": [0.4, 0.6]})
        derived = probe.points()[1].seed
        spec = make_spec(
            axes={},
            grid=({"workload.load": 0.4, "seed": derived},
                  {"workload.load": 0.6},),
        )
        findings = lint_spec(spec)
        assert "seed-collision" in rules_of(findings)

    def test_config_seed_param_ignored_warning(self):
        spec = make_spec(
            axes={}, grid=({"workload.load": 0.4, "seed": 9},)
        )
        findings = [
            f for f in lint_spec(spec) if f.rule == "seed-override-ignored"
        ]
        assert findings and findings[0].severity == "warning"
        assert "silently discarded" in findings[0].message

    def test_factory_seed_param_is_error(self):
        spec = SweepSpec(
            name="t", kind="task", seed=1,
            factory="some.module:fn",
            grid=({"n": 1, "seed": 5},),
        )
        findings = [
            f for f in lint_spec(spec) if f.rule == "seed-override-ignored"
        ]
        assert findings and findings[0].severity == "error"
        assert "TypeError" in findings[0].message

    def test_base_seed_noted(self):
        spec = make_spec(base=dict(BASE, seed=7))
        findings = lint_spec(spec)
        assert rules_of(findings) == ["seed-override-ignored"]
        assert findings[0].severity == "note"

    def test_main_anchored_factory_digest_unstable(self):
        spec = SweepSpec(
            name="t", kind="task", seed=1,
            factory="__main__:fn", grid=({"n": 1},),
        )
        findings = lint_spec(spec)
        assert "digest-unstable" in rules_of(findings)

    def test_non_finite_float_digest_unstable(self):
        spec = make_spec(axes={"workload.load": [0.5, float("nan")]})
        findings = lint_spec(spec)
        assert "digest-unstable" in rules_of(findings)

    def test_fastpath_engine_forecast_per_point(self):
        spec = make_spec(
            base=dict(BASE, servers={"count": 2, "cores": 1}),
            engine="fastpath",
        )
        findings = lint_spec(spec)
        assert rules_of(findings) == ["fastpath-forecast"]
        assert len(findings) == 2  # one per point
        assert all(f.severity == "error" for f in findings)

    def test_findings_are_sorted_and_registered(self):
        spec = make_spec(
            base=dict(BASE, seed=7),
            axes={"workload.load": [0.5, 1.05]},
        )
        findings = lint_spec(spec)
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule)
        )
        assert {f.rule for f in findings} <= set(MODEL_RULES)


class TestFixtureSpecs:
    def test_committed_fixture_flags_collision_and_instability(self):
        spec = SweepSpec.load(FIXTURE_SPEC)
        findings = lint_spec(spec, path=str(FIXTURE_SPEC))
        rules = rules_of(findings)
        assert "seed-collision" in rules
        assert "unstable-point" in rules
        assert "seed-override-ignored" in rules
        assert has_errors(findings)

    def test_demo_spec_matches_fixture(self):
        spec = SweepSpec.load(DEMO_SPEC)
        findings = lint_spec(spec, path=str(DEMO_SPEC))
        assert "seed-collision" in rules_of(findings)
        assert "unstable-point" in rules_of(findings)


class TestCliLint:
    def test_sweep_lint_demo_exits_one(self, capsys):
        assert repro_main(["sweep", str(DEMO_SPEC), "--lint"]) == 1
        out = capsys.readouterr().out
        assert "seed-collision" in out
        assert "unstable-point" in out

    def test_sweep_lint_clean_exits_zero(self, tmp_path, capsys):
        spec = tmp_path / "ok.json"
        spec.write_text(json.dumps({
            "sweep": {"name": "ok", "kind": "config", "seed": 1},
            "base": BASE,
            "axes": {"workload.load": [0.3, 0.5]},
        }))
        assert repro_main(["sweep", str(spec), "--lint"]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_sweep_lint_unloadable_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{not json")
        assert repro_main(["sweep", str(spec), "--lint"]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_run_lint_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            dict(BASE, workload={"name": "web", "load": 0.5})
        ))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            dict(BASE, workload={"name": "web", "load": 1.5})
        ))
        assert repro_main(["run", str(good), "--lint"]) == 0
        capsys.readouterr()
        assert repro_main(["run", str(bad), "--lint"]) == 1
        assert "unstable-point" in capsys.readouterr().out
        assert repro_main(["run", str(tmp_path / "nope.json"),
                           "--lint"]) == 2


MISFIT_DEMO = REPO_ROOT / "examples" / "sweeps" / "multiserver_misfit_demo.toml"

#: An explicit-distribution gang workload for the workload-class rules.
MSJ_WORKLOAD = {
    "label": "msj",
    "interarrival": {"type": "exponential", "rate": 4.0},
    "service": {"type": "exponential", "rate": 2.0},
    "servers_needed": {"type": "choice", "values": [1, 2],
                       "weights": [0.5, 0.5]},
}


class TestWorkloadClassRules:
    """multiserver-misfit and clone-overload."""

    def msj_config(self, workload=None, cluster={"servers": 4}):
        config = {key: value for key, value in BASE.items()
                  if key != "servers"}
        config["workload"] = dict(MSJ_WORKLOAD, **(workload or {}))
        config["cluster"] = cluster
        return config

    def test_clean_msj_config(self):
        assert lint_config(self.msj_config()) == []

    def test_needs_exceeding_cluster_is_error(self):
        # Arrival rate kept low so the only finding is the misfit.
        config = self.msj_config(
            workload={
                "interarrival": {"type": "exponential", "rate": 0.5},
                "servers_needed": {"type": "choice", "values": [1, 4]},
            },
            cluster={"servers": 2},
        )
        findings = lint_config(config)
        assert rules_of(findings) == ["multiserver-misfit"]
        assert findings[0].severity == "error"
        assert "never be placed" in findings[0].message
        assert has_errors(findings)

    def test_gang_workload_without_cluster_warns(self):
        # 4 plain servers keep rho stable; the gang needs still warn.
        config = dict(BASE, workload=dict(MSJ_WORKLOAD),
                      servers={"count": 4, "cores": 1})
        findings = lint_config(config)
        assert rules_of(findings) == ["multiserver-misfit"]
        assert findings[0].severity == "warning"
        assert "no 'cluster' section" in findings[0].message

    def test_mean_need_scales_offered_load(self):
        # lam = 12, mu = 2, 4 servers, E[k] = 1.5: rho = 2.25 >= 1.
        config = self.msj_config(
            workload={"interarrival": {"type": "exponential", "rate": 12.0}}
        )
        findings = lint_config(config)
        assert "unstable-point" in rules_of(findings)

    def clone_config(self, clones=2, rate=2.5):
        return dict(
            BASE,
            servers={"count": 2, "model": "ps"},
            balancer={"policy": "cloning", "clones": clones},
            workload={
                "label": "clone",
                "interarrival": {"type": "exponential", "rate": rate},
                "service": {"type": "exponential", "rate": 2.0},
            },
        )

    def test_clone_overload_is_error(self):
        # rho = 2.5 / (2 * 2) = 0.625 looks stable, but cloning to both
        # backends doubles it: 2 x 0.625 = 1.25 >= 1.
        findings = lint_config(self.clone_config())
        assert rules_of(findings) == ["clone-overload"]
        assert findings[0].severity == "error"
        assert has_errors(findings)

    def test_unreplicated_load_is_clean(self):
        assert lint_config(self.clone_config(clones=1)) == []

    def test_light_load_survives_cloning(self):
        # 2 x 0.25 = 0.5 < 1: cloning both ways is fine.
        assert lint_config(self.clone_config(rate=1.0)) == []

    def test_misfit_demo_spec_exits_one(self, capsys):
        assert repro_main(["sweep", str(MISFIT_DEMO), "--lint"]) == 1
        out = capsys.readouterr().out
        assert "multiserver-misfit" in out
        assert "never be placed" in out

    def test_shipped_workload_sweeps_are_clean(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        for name in ("mm1_loadcurve", "fig8_cv", "multiserver_waste",
                     "cloning_tail"):
            spec = f"examples/sweeps/{name}.toml"
            assert repro_main(["sweep", spec, "--lint"]) == 0
            assert "0 findings" in capsys.readouterr().out
