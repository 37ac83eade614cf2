"""Pinned command-line surface of ``repro``.

``tests/fixtures/cli_pins.json`` holds three tables, recorded by an
earlier commit's CLI:

- ``help``: the ``--help`` text of ``repro`` and of each subcommand, at
  ``COLUMNS=100``;
- ``flags``: the exit code and stderr of ``repro run`` / ``repro
  sweep`` for each flag given alone, then with what it needs (the flag
  the refusal names, added until none is refused), and for every
  ordered pair of flags.  The run stops right after the flag checks
  (:func:`flag_outcome` swaps the fault-option builder for a sentinel),
  so no row simulates anything;
- ``commands``: ``vars(build_parser().parse_args(argv))`` for every
  ``repro`` command line in CI, ``README.md`` and ``docs/``.

A change to ``repro.cli`` that is meant to keep the surface must leave
them green.  Re-record only on purpose, with
``PYTHONPATH=src python -m tests.test_cli_pins``.
"""

import contextlib
import io
import json
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINS_FILE = ROOT / "tests" / "fixtures" / "cli_pins.json"
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"

#: What the fault-option builder prints instead of building: every
#: flag check has passed.
PAST_THE_CHECKS = "<past the flag checks>"

COMMANDS = ("run", "workloads", "characterize", "theory", "sweep", "agent")

#: Values for each option of ``run`` / ``sweep`` (a list of argv tails
#: per option; a choice off the parser's choices or equal to its default
#: is skipped).  Paths are never opened: the run stops before.
SAMPLES = {
    "--backend": [["process"], ["remote"], ["serial"], ["pool"]],
    "--cache": [["cache"]],
    "--chaos": [['{"faults": []}']],
    "--checkpoint": [["run.ck"]],
    "--checkpoint-interval": [["3"]],
    "--deadline": [["5"]],
    "--engine": [["event"], ["auto"], ["fastpath"]],
    "--force": [[]],
    "--heartbeat-interval": [["1"]],
    "--heartbeat-misses": [["5"]],
    "--jobs": [["2"]],
    "--join-timeout": [["5"]],
    "--lint": [[]],
    "--listen": [["127.0.0.1:0"]],
    "--max-restarts": [["4"]],
    "--metrics": [[]],
    "--min-workers": [["2"]],
    "--on-degrade": [["continue"]],
    "--out": [["out.json"]],
    "--parallel": [["2"]],
    "--point-timeout": [["5"]],
    "--progress": [["1"]],
    "--resume": [["run.ck"]],
    "--respawn": [[]],
    "--round-timeout": [["5"]],
    "--sanitize": [[]],
    "--trace": [["trace.jsonl"]],
    "--transport-key": [["k"]],
}

#: The argv that satisfies each ``"FLAG requires NEED"`` refusal.
NEED_ARGV = {
    "--parallel": ["--parallel", "2"],
    "--backend remote": ["--backend", "remote"],
    "--backend pool or remote": ["--backend", "pool"],
    "--listen": ["--listen", "127.0.0.1:0"],
    "--respawn": ["--respawn"],
    "--checkpoint": ["--checkpoint", "run.ck"],
}

REFUSAL = re.compile(r"^\S+(?: \S+)? requires (.+)\n$")

#: Every ``repro`` command line in CI, README.md and docs/, as
#: ``(where, argv)``: ``where`` is ``file:line`` of the line the
#: command starts on (:func:`command_at`); shell continuations are
#: joined, redirections and the trailing ``&`` dropped.
DOCUMENTED = [
    ("README.md:123", ["workloads"]),
    ("README.md:124", ["run", "experiment.json"]),
    ("README.md:125", ["run", "experiment.json", "--sanitize"]),
    ("README.md:127", ["characterize", "trace.txt"]),
    ("README.md:128", ["theory", "mm1", "--lam", "10", "--mu", "20"]),
    ("analysis.md:157",
     ["sweep", "examples/sweeps/lint_demo.toml", "--lint"]),
    ("analysis.md:161", ["run", "config.json", "--lint"]),
    ("analysis.md:311", ["run", "config.json", "--sanitize"]),
    ("distributed.md:155", ["sweep", "examples/sweeps/mm1_loadcurve.toml",
                            "--backend", "remote",
                            "--listen", "127.0.0.1:9751"]),
    ("distributed.md:159", ["agent", "127.0.0.1:9751", "--slots", "8"]),
    ("distributed.md:162", ["run", "config.json", "--parallel", "8",
                            "--backend", "remote",
                            "--listen", "0.0.0.0:9751"]),
    ("extending.md:117", ["characterize", "trace.txt"]),
    ("fastpath.md:22", ["run", "conf.json", "--engine", "auto"]),
    ("observability.md:23", ["run", "exp.json", "--trace", "trace.jsonl",
                             "--metrics", "--progress", "10"]),
    ("reproducing.md:19", ["sweep", "examples/sweeps/fig8_cv.toml",
                           "--jobs", "4", "--cache", ".sweep-cache",
                           "--out", "fig8.json"]),
    ("robustness.md:400", ["run", "config.json", "--parallel", "4",
                           "--chaos",
                           '{"faults": [{"kind": "kill", "slave_id": 1, '
                           '"round": 1}]}',
                           "--respawn"]),
    ("robustness.md:405", ["run", "config.json", "--parallel", "4",
                           "--backend", "process", "--checkpoint",
                           "run.ck"]),
    ("robustness.md:407", ["run", "config.json", "--parallel", "4",
                           "--backend", "process", "--resume", "run.ck"]),
    ("sweeps.md:10", ["sweep", "examples/sweeps/mm1_loadcurve.toml",
                      "--jobs", "4", "--cache", ".sweep-cache",
                      "--out", "loadcurve.json"]),
]


def command_at(where):
    """The words after ``repro`` on the command line that starts at
    ``where``, continuation lines joined; a shell comment, a closing
    backtick and everything after them are dropped."""
    name, number = where.rsplit(":", 1)
    path = {
        "ci.yml": CI_FILE,
        "README.md": ROOT / "README.md",
    }.get(name, ROOT / "docs" / name)
    lines = iter(path.read_text().splitlines()[int(number) - 1:])
    text = next(lines)
    while text.endswith("\\"):
        text = text[:-1] + next(lines)
    found = re.search(r"\brepro (?=[a-z])", text)
    if found is None:
        return []
    words = shlex.shlex(
        text[found.end():].split("`")[0], posix=True, punctuation_chars=True
    )
    words.whitespace_split = True
    return list(words)


def _captured(call):
    """``(exit code, stdout, stderr)`` of ``call()``, SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exit:
            code = exit.code
    return code, out.getvalue(), err.getvalue()


def help_texts():
    """``{command: --help text}``; ``""`` is ``repro`` itself."""
    from repro.cli import main

    texts = {}
    for command in ("",) + COMMANDS:
        argv = [command, "--help"] if command else ["--help"]
        code, out, _ = _captured(lambda: main(argv))
        assert code == 0
        texts[command] = out
    return texts


def _options(command):
    """Each long option of ``command``'s parser with its sample argvs."""
    from repro.cli import build_parser

    (commands,) = [
        a for a in build_parser()._actions if a.dest == "command"
    ]
    options = []
    for action in commands.choices[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        (option,) = action.option_strings
        variants = [
            [option] + tail for tail in SAMPLES[option]
            if not tail or action.choices is None or (
                tail[0] in action.choices and tail[0] != action.default
            )
        ]
        options.append((option, variants))
    return options


def _workdir_files(workdir):
    """The config and the spec the flag rows run against."""
    config = {
        "seed": 4,
        "warmup_samples": 200,
        "calibration_samples": 1500,
        "workload": {"name": "dns", "load": 0.5},
        "servers": {"count": 1, "cores": 1},
        "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
    }
    spec = {
        "sweep": {
            "name": "cli-pins", "kind": "task", "seed": 9,
            "factory": "tests.sweep_factories:moment_task",
        },
        "axes": {"x": [1, 2, 3]},
    }
    targets = {"run": workdir / "exp.json", "sweep": workdir / "spec.json"}
    targets["run"].write_text(json.dumps(config))
    targets["sweep"].write_text(json.dumps(spec))
    return targets


def flag_outcome(command, flags, target, workdir):
    """``{argv, code, stderr}`` of ``repro COMMAND TARGET FLAGS``, stopped
    once every flag check has passed."""
    from repro import cli

    def past_the_checks(args):
        print(PAST_THE_CHECKS, file=sys.stderr)
        return None

    building = cli._build_fault_options
    cli._build_fault_options = past_the_checks
    try:
        code, _, err = _captured(
            lambda: cli.main([command, str(target)] + flags)
        )
    finally:
        cli._build_fault_options = building
    return {
        "argv": [command] + flags,
        "code": code,
        "stderr": err.replace(str(workdir), "<tmp>"),
    }


def flag_rows():
    """Every flag alone (then with what it needs), and every ordered
    pair of flags, for ``run`` and ``sweep``."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        targets = _workdir_files(workdir)
        for command in ("run", "sweep"):
            options = _options(command)
            for _, variants in options:
                for flags in variants:
                    for _ in range(len(NEED_ARGV)):
                        row = flag_outcome(
                            command, flags, targets[command], workdir
                        )
                        rows.append(row)
                        refused = REFUSAL.match(row["stderr"])
                        if refused is None or refused[1] not in NEED_ARGV:
                            break
                        flags = flags + NEED_ARGV[refused[1]]
            for first, first_variants in options:
                for second, second_variants in options:
                    if first == second:
                        continue
                    for a in first_variants:
                        for b in second_variants:
                            rows.append(flag_outcome(
                                command, a + b, targets[command], workdir
                            ))
    return rows


def _namespace(argv):
    from repro.cli import build_parser

    namespace = vars(build_parser().parse_args(argv))
    namespace["handler"] = namespace["handler"].__name__
    return namespace


def command_rows():
    return [
        {"where": where, "argv": argv, "namespace": _namespace(argv)}
        for where, argv in DOCUMENTED
    ]


def record():
    """The whole pin document, as the current CLI produces it."""
    return {
        "help": help_texts(),
        "flags": flag_rows(),
        "commands": command_rows(),
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_FILE.read_text())


@pytest.fixture
def columns_100(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")


@pytest.mark.usefixtures("columns_100")
class TestPinnedCli:
    @pytest.mark.parametrize("command", ("",) + COMMANDS)
    def test_help(self, pins, command):
        assert help_texts()[command] == pins["help"][command]

    def test_flag_checks(self, pins):
        recorded = {tuple(row["argv"]): row for row in pins["flags"]}
        produced = {tuple(row["argv"]): row for row in flag_rows()}
        assert produced.keys() == recorded.keys()
        for argv, row in produced.items():
            assert row == recorded[argv], argv

    @pytest.mark.parametrize(
        "where, argv", DOCUMENTED, ids=[where for where, _ in DOCUMENTED]
    )
    def test_documented_command_parses(self, pins, where, argv):
        (row,) = [r for r in pins["commands"] if r["where"] == where]
        assert row["argv"] == argv
        assert _namespace(argv) == row["namespace"]

    @pytest.mark.parametrize(
        "where, argv", DOCUMENTED, ids=[where for where, _ in DOCUMENTED]
    )
    def test_label_names_the_line_the_command_starts_on(self, where, argv):
        assert command_at(where)[:len(argv)] == argv

    def test_ci_runs_no_inline_script(self):
        # A CI check is a test or a CLI command that runs the same way
        # on a laptop: no heredoc, no `python -` or `python -c` step.
        text = CI_FILE.read_text()
        assert re.findall(r"<<-?\s*['\"]?\w+", text) == []
        assert re.findall(r"\bpython3? -(?:c\b|\s)", text) == []


def _dump(document) -> str:
    """JSON with one flag row per line, so a re-record diffs by row."""
    rows = ",\n  ".join(json.dumps(row) for row in document["flags"])
    return (
        '{\n "help": ' + json.dumps(document["help"], indent=1).replace(
            "\n", "\n "
        )
        + ',\n "flags": [\n  ' + rows + "\n ]"
        + ',\n "commands": '
        + json.dumps(document["commands"], indent=1).replace("\n", "\n ")
        + "\n}\n"
    )


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    import os

    os.environ["COLUMNS"] = "100"
    PINS_FILE.write_text(_dump(record()))
