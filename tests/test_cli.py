"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


class TestWorkloads:
    def test_lists_table1(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("dns", "mail", "shell", "google", "web"):
            assert name in out


class TestTheory:
    def test_mm1(self, capsys):
        assert main(["theory", "mm1", "--lam", "10", "--mu", "20"]) == 0
        out = capsys.readouterr().out
        assert "mean_response  0.1" in out

    def test_mmk(self, capsys):
        assert main(
            ["theory", "mmk", "--lam", "30", "--mu", "10", "--k", "4"]
        ) == 0
        assert "erlang_c" in capsys.readouterr().out

    def test_mg1(self, capsys):
        assert main(
            ["theory", "mg1", "--lam", "10", "--mu", "20", "--cv", "2.0"]
        ) == 0
        assert "mean_waiting" in capsys.readouterr().out


class TestRun:
    def test_runs_config_and_emits_json(self, tmp_path, capsys):
        config = {
            "seed": 4,
            "warmup_samples": 200,
            "calibration_samples": 1500,
            "workload": {"name": "dns", "load": 0.5},
            "servers": {"count": 1, "cores": 1},
            "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["metrics"]["response_time"]["mean"] > 0

    def test_unconverged_exit_code(self, tmp_path, capsys):
        config = {
            "seed": 4,
            "warmup_samples": 200,
            "calibration_samples": 1500,
            "workload": {"name": "dns", "load": 0.5},
            "servers": {"count": 1, "cores": 1},
            "metrics": [{"kind": "response_time", "mean_accuracy": 0.001}],
            "max_events": 10000,
        }
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path)]) == 3

    def test_engine_choices_are_the_engine_list(self):
        # cli.py spells the choices out so that building the parser
        # imports no engine module; they must still be the one list.
        from repro.cli import build_parser
        from repro.engine.experiment import ENGINES

        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        (engine,) = [
            a for a in commands.choices["run"]._actions if a.dest == "engine"
        ]
        assert engine.choices == ENGINES

    def test_building_the_parser_imports_no_engine(self):
        # A fresh interpreter: this one has long imported everything.
        probe = (
            "import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print(sorted(m for m in ('numpy', 'repro.engine', "
            "'repro.parallel') if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        assert out == "[]\n"


#: ``(command, dest, owner, parameter)``: each flag whose default is
#: also the default of the parameter it feeds.
FED_DEFAULTS = [
    ("run", "round_timeout", "ParallelSimulation", "round_timeout"),
    ("run", "join_timeout", "ParallelSimulation", "join_timeout"),
    ("run", "checkpoint_interval", "ParallelSimulation",
     "checkpoint_interval"),
    ("run", "backend", "ParallelSimulation", "backend"),
    ("sweep", "point_timeout", "SweepRunner", "job_timeout"),
    ("sweep", "join_timeout", "SweepRunner", "join_timeout"),
    ("sweep", "backend", "SweepRunner", "backend"),
    ("sweep", "jobs", "SweepRunner", "jobs"),
    ("run", "max_restarts", "RespawnPolicy", "max_restarts_per_slave"),
    ("sweep", "max_restarts", "RespawnPolicy", "max_restarts_per_slave"),
    ("run", "heartbeat_misses", "RemoteTransport", "heartbeat_misses"),
    ("sweep", "heartbeat_misses", "RemoteTransport", "heartbeat_misses"),
    ("run", "on_degrade", "SupervisionPolicy", "on_exhausted"),
    ("sweep", "on_degrade", "SupervisionPolicy", "on_exhausted"),
]


@pytest.mark.parametrize(
    "command, dest, owner, parameter", FED_DEFAULTS,
    ids=[f"{c}-{d}" for c, d, _, _ in FED_DEFAULTS],
)
def test_flag_default_is_its_parameter_default(command, dest, owner, parameter):
    """cli.py spells each default out rather than import its owner, so
    the two are compared here."""
    import inspect

    from repro.cli import build_parser
    from repro.faults import RespawnPolicy, SupervisionPolicy
    from repro.parallel.master import ParallelSimulation
    from repro.parallel.transport import RemoteTransport
    from repro.sweep import SweepRunner

    owners = {
        cls.__name__: cls for cls in (
            ParallelSimulation, SweepRunner, RespawnPolicy,
            RemoteTransport, SupervisionPolicy,
        )
    }
    parsed = build_parser().parse_args([command, "target"])
    fed = inspect.signature(owners[owner]).parameters[parameter].default
    assert getattr(parsed, dest) == fed


class TestCharacterize:
    def test_distills_trace(self, tmp_path, capsys):
        trace = tmp_path / "mytrace.txt"
        trace.write_text(
            "# arrival size\n"
            + "".join(f"{i * 0.1:.3f} 0.05\n" for i in range(100))
        )
        out_dir = tmp_path / "out"
        assert main(
            ["characterize", str(trace), "--output-dir", str(out_dir)]
        ) == 0
        assert (out_dir / "mytrace.arr").exists()
        assert (out_dir / "mytrace.svc").exists()
        out = capsys.readouterr().out
        assert "inter-arrival" in out

        # The written files round-trip through the loader.
        from repro.distributions import EmpiricalDistribution

        arr = EmpiricalDistribution.load(out_dir / "mytrace.arr")
        assert arr.mean() == pytest.approx(0.1, rel=0.01)

    def test_malformed_trace_rejected(self, tmp_path):
        trace = tmp_path / "bad.txt"
        trace.write_text("1.0 2.0 3.0\n")
        assert main(["characterize", str(trace)]) == 2


def write_config(tmp_path, **overrides):
    config = {
        "seed": 4,
        "warmup_samples": 200,
        "calibration_samples": 1500,
        "workload": {"name": "dns", "load": 0.5},
        "servers": {"count": 1, "cores": 1},
        "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
    }
    config.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    return path


class TestRunObservability:
    def test_trace_flag_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.observability import validate_trace_file

        trace_path = tmp_path / "trace.jsonl"
        config = write_config(tmp_path)
        assert main(["run", str(config), "--trace", str(trace_path),
                     "--metrics"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["telemetry"]["events_processed"] > 0
        count, errors = validate_trace_file(trace_path)
        assert errors == []
        assert count > 0
        components = {
            json.loads(line)["component"]
            for line in trace_path.read_text().splitlines()
        }
        assert {"engine", "statistic"} <= components

    def test_metrics_flag_embeds_telemetry(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config), "--metrics"]) == 0
        payload = json.loads(capsys.readouterr().out)
        telemetry = payload["telemetry"]
        assert telemetry["events_processed"] > 0
        assert telemetry["metrics"]["response_time"]["phase"] == "converged"

    def test_no_flags_no_telemetry(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" not in payload

    def test_progress_flag_reports_to_stderr(self, tmp_path, capsys):
        config = write_config(tmp_path)
        for flags, line in (
            ([], "[progress] response_time"),
            (["--parallel", "2", "--metrics"], "[progress] round "),
        ):
            assert main(["run", str(config), *flags, "--progress", "0"]) == 0
            captured = capsys.readouterr()
            assert line in captured.err
            json.loads(captured.out)  # stdout stays pure JSON

    def test_parallel_serial_backend(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        config = write_config(tmp_path)
        assert main([
            "run", str(config), "--parallel", "2", "--backend", "serial",
            "--trace", str(trace_path), "--metrics",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["n_slaves"] == 2
        assert payload["degraded"] is False
        assert payload["telemetry"]["parallel"]["rounds"] == payload["rounds"]
        components = {
            json.loads(line)["component"]
            for line in trace_path.read_text().splitlines()
        }
        assert {"engine", "master", "slave"} <= components

    def test_sanitize_parallel_mutually_exclusive(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(
            ["run", str(config), "--sanitize", "--parallel", "2"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_fault_flags_require_parallel(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config), "--respawn"]) == 2
        assert "--parallel" in capsys.readouterr().err

    def test_chaos_respawn_recovers(self, tmp_path, capsys):
        # Tight enough accuracy that the run outlives the detection
        # round — respawn only fires when the round's merge has not
        # already converged.
        config = write_config(
            tmp_path,
            metrics=[{"kind": "response_time", "mean_accuracy": 0.03}],
        )
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "faults": [{"kind": "kill", "slave_id": 1, "round": 1,
                        "phase": "pre_report"}],
        }))
        assert main([
            "run", str(config), "--parallel", "2",
            "--chaos", str(plan), "--respawn",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["degraded"] is False
        assert payload["restarts"] == 1

    def test_checkpoint_and_resume_bit_identical(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config), "--parallel", "2"]) == 0
        uninterrupted = json.loads(capsys.readouterr().out)

        # Resuming from a converged checkpoint is a no-op that must
        # reproduce the digests bit-for-bit (mid-run interruption is
        # covered in tests/test_faults.py where the cut is controlled).
        checkpoint = tmp_path / "ck.jsonl"
        assert main([
            "run", str(config), "--parallel", "2",
            "--checkpoint", str(checkpoint),
        ]) == 0
        capsys.readouterr()
        assert main([
            "run", str(config), "--parallel", "2",
            "--resume", str(checkpoint),
        ]) == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["resumed"] is True
        assert resumed["merged_digests"] == uninterrupted["merged_digests"]

    def test_trace_validator_cli(self, tmp_path):
        from repro.observability.__main__ import main as validate_main

        trace_path = tmp_path / "trace.jsonl"
        config = write_config(tmp_path)
        assert main(["run", str(config), "--trace", str(trace_path)]) == 0
        assert validate_main([str(trace_path)]) == 0
        trace_path.write_text('{"seq": "bogus"}\n')
        assert validate_main([str(trace_path)]) == 1


#: A plan of frame kinds: it acts on the wire, so only a remote fleet.
FRAME_PLAN = '{"faults": [{"kind": "drop", "slave_id": 0, "round": 1}]}'


class TestRobustnessFlags:
    def test_net_chaos_requires_parallel(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(
            ["run", str(config), "--chaos", FRAME_PLAN]
        ) == 2
        assert capsys.readouterr().err == "--chaos requires --parallel\n"

    def test_net_chaos_requires_remote_backend(self, tmp_path, capsys):
        config = write_config(tmp_path)
        spec = write_task_spec(tmp_path)
        for argv in (
            ["run", str(config), "--parallel", "2", "--backend", "process"],
            ["run", str(config), "--parallel", "2"],
            ["sweep", str(spec)],
            ["sweep", str(spec), "--backend", "serial"],
        ):
            assert main(argv + ["--chaos", FRAME_PLAN]) == 2
            assert capsys.readouterr().err == (
                f"{argv[0]}: --chaos: frame faults (drop) need "
                "--backend remote\n"
            )

    def test_supervision_flags_require_parallel(self, tmp_path, capsys):
        config = write_config(tmp_path)
        for flags in (
            ["--min-workers", "2"],
            ["--deadline", "5"],
            ["--on-degrade", "continue"],
        ):
            assert main(["run", str(config)] + flags) == 2
            assert "--parallel" in capsys.readouterr().err

    def test_deadline_continue_returns_degraded_json(
        self, tmp_path, capsys
    ):
        config = write_config(tmp_path)
        code = main([
            "run", str(config), "--parallel", "2",
            "--deadline", "0.000001", "--on-degrade", "continue",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3  # merged-so-far result, not converged
        assert payload["degraded"] is True

    def test_deadline_abort_is_a_typed_failure(self, tmp_path):
        from repro.faults import SupervisionError
        from repro.parallel.protocol import CAUSE_DEADLINE_EXCEEDED

        config = write_config(tmp_path)
        with pytest.raises(SupervisionError) as info:
            main([
                "run", str(config), "--parallel", "2",
                "--deadline", "0.000001",
            ])
        assert info.value.cause == CAUSE_DEADLINE_EXCEEDED


def write_task_spec(tmp_path):
    """A three-point task sweep: cheap on every backend."""
    from repro.sweep import SweepSpec

    spec = SweepSpec(
        name="cli-tasks", kind="task", seed=9,
        factory="tests.sweep_factories:moment_task", axes={"x": [1, 2, 3]},
    )
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    return path


#: One value for each fleet flag that a one-worker fleet can honour.
FLEET_FLAGS = [
    ["--chaos", '{"faults": []}'],
    ["--respawn"],
    ["--min-workers", "1"],
    ["--deadline", "600"],
    ["--on-degrade", "continue"],
]


class TestSweepFleetFlags:
    """A serial sweep is a one-worker pool: it takes the fleet flags the
    pool does, and there is no per-point spawn backend any more."""

    @pytest.mark.parametrize("flags", FLEET_FLAGS)
    def test_serial_accepts_fleet_flags(self, flags, tmp_path, capsys):
        spec = write_task_spec(tmp_path)
        assert main(["sweep", str(spec), "--backend", "serial"] + flags) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["pool"]["n_workers"] == 1
        assert [p["payload"]["task"]["value"] for p in document["points"]] == [
            1.0, 2.0, 3.0,
        ]

    def test_serial_honours_the_fleet_floor(self, tmp_path):
        from repro.faults import SupervisionError
        from repro.parallel.protocol import CAUSE_FLEET_EXHAUSTED

        spec = write_task_spec(tmp_path)
        with pytest.raises(SupervisionError) as info:
            main(["sweep", str(spec), "--backend", "serial",
                  "--min-workers", "2"])
        assert info.value.cause == CAUSE_FLEET_EXHAUSTED

    @pytest.mark.parametrize("flags", FLEET_FLAGS)
    def test_spawn_backend_is_an_argparse_error(self, flags, tmp_path):
        spec = write_task_spec(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["sweep", str(spec), "--backend", "spawn"] + flags)
        assert info.value.code == 2


#: ``repro run`` flags the chosen mode would never read, and the error.
RUN_MISUSE = [
    (["--backend", "process"], "--backend requires --parallel"),
    (["--round-timeout", "5"], "--round-timeout requires --parallel"),
    (["--join-timeout", "5"], "--join-timeout requires --parallel"),
    (["--checkpoint-interval", "3"],
     "--checkpoint-interval requires --parallel"),
    (["--listen", "127.0.0.1:0"], "--listen requires --backend remote"),
    (["--transport-key", "k"], "--transport-key requires --backend remote"),
    (["--heartbeat-interval", "1"],
     "--heartbeat-interval requires --backend remote"),
    (["--heartbeat-misses", "5"],
     "--heartbeat-misses requires --backend remote"),
    (["--parallel", "2", "--join-timeout", "5"],
     "--join-timeout requires --backend remote"),
    (["--parallel", "2", "--max-restarts", "4"],
     "--max-restarts requires --respawn"),
    (["--parallel", "2", "--checkpoint-interval", "3"],
     "--checkpoint-interval requires --checkpoint"),
]

#: The same for ``repro sweep``.
SWEEP_MISUSE = [
    (["--backend", "serial", "--jobs", "2"],
     "--jobs requires --backend pool or remote"),
    (["--listen", "127.0.0.1:0"], "--listen requires --backend remote"),
    (["--transport-key", "k"], "--transport-key requires --backend remote"),
    (["--heartbeat-interval", "1"],
     "--heartbeat-interval requires --backend remote"),
    (["--heartbeat-misses", "5"],
     "--heartbeat-misses requires --backend remote"),
    (["--join-timeout", "5"], "--join-timeout requires --backend remote"),
    (["--max-restarts", "4"], "--max-restarts requires --respawn"),
]


class TestFlagNeeds:
    """A flag the chosen mode never reads is exit 2 naming the flag and
    what it needs, never silently ignored."""

    @pytest.mark.parametrize(
        "flags, message", RUN_MISUSE, ids=[m for _, m in RUN_MISUSE]
    )
    def test_run(self, flags, message, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["run", str(config)] + flags) == 2
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize(
        "flags, message", SWEEP_MISUSE, ids=[m for _, m in SWEEP_MISUSE]
    )
    def test_sweep(self, flags, message, tmp_path, capsys):
        spec = write_task_spec(tmp_path)
        assert main(["sweep", str(spec)] + flags) == 2
        assert capsys.readouterr().err.strip() == message


class TestAgentFlags:
    def test_repro_agent_and_module_entry_share_one_declaration(self):
        from repro.cli import build_parser

        parsed = build_parser().parse_args(
            ["agent", "h:1", "--slots", "3", "--transport-key", "k",
             "--max-redial", "4", "--idle-exit", "2.5"]
        )
        assert parsed.slots == 3
        defaults = build_parser().parse_args(["agent", "h:1"])
        assert defaults.slots == (os.cpu_count() or 1)
        assert (defaults.context, defaults.reconnect_delay,
                defaults.reconnect_cap, defaults.backoff_seed,
                defaults.max_redial, defaults.idle_exit) == (
            "fork", 0.2, 30.0, 0, None, None)
