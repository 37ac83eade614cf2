"""Whole-program analysis: symbols, call graph, taint, races, surface.

The positive cases run over the committed hazard corpus in
``tests/fixtures/wpa_corpus`` (each file plants one cross-module
hazard the per-file rules cannot see); the negative case is the
repository itself: ``src`` must carry zero findings.
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_callgraph, default_worker_entries
from repro.analysis.cli import main as simlint_main
from repro.analysis.dataflow import analyze_taint
from repro.analysis.linter import Finding
from repro.analysis.project import analyze_project
from repro.analysis.races import analyze_races
from repro.analysis.symbols import (
    ProjectIndex,
    load_modules,
    module_name_for,
    parse_module,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
FIXTURES = REPO_ROOT / "tests" / "fixtures"
CORPUS = FIXTURES / "wpa_corpus"
WORKER_ENTRIES = ["wpa_corpus.worker.worker_main"]


def corpus_findings():
    findings, scanned = analyze_project(
        [CORPUS], project_root=FIXTURES, worker_entries=WORKER_ENTRIES
    )
    assert scanned == 7
    return findings


@pytest.fixture(scope="module")
def corpus():
    return corpus_findings()


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


def build_index(tmp_path, modules):
    """Write ``{relpath: source}`` files and index them as a project."""
    paths = []
    for rel, source in modules.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        paths.append(target)
    index = ProjectIndex()
    for target in sorted(paths):
        rel = target.relative_to(tmp_path).as_posix()
        index.add(parse_module(target.read_text(), str(target), rel))
    return index


# -- the seeded corpus --------------------------------------------------------


class TestCorpusHazards:
    def test_cross_module_rng_taint_detected(self, corpus):
        (finding,) = by_rule(corpus, "rng-taint")
        assert finding.path.endswith("rng_consumer.py")
        assert "default_rng" in finding.message
        assert "rng_producer" in finding.message  # origin is attributed

    def test_cross_module_clock_taint_detected(self, corpus):
        (finding,) = by_rule(corpus, "clock-taint")
        assert finding.path.endswith("clock_consumer.py")
        assert "time.time" in finding.message
        assert "clock_producer" in finding.message

    def test_worker_reachable_race_detected(self, corpus):
        (finding,) = by_rule(corpus, "shared-state-race")
        assert finding.path.endswith("worker.py")
        assert "wpa_corpus.shared.RESULTS" in finding.message
        assert "worker_main" in finding.message

    def test_per_file_rules_still_run(self, corpus):
        # The producer's unseeded constructor also trips the per-file rule.
        assert by_rule(corpus, "global-rng")

    def test_findings_deterministically_ordered(self, corpus):
        assert corpus == sorted(corpus, key=Finding.sort_key)
        assert corpus == corpus_findings()  # stable across runs


# -- symbol table / call graph -----------------------------------------------


class TestSymbolsAndCallgraph:
    def test_module_name_walks_packages(self):
        assert module_name_for(CORPUS / "worker.py") == "wpa_corpus.worker"
        assert module_name_for(CORPUS / "__init__.py") == "wpa_corpus"

    def test_import_alias_resolution(self, tmp_path):
        index = build_index(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": "def source():\n    return 1\n",
            "pkg/b.py": (
                "from pkg.a import source as src\n"
                "def caller():\n"
                "    return src()\n"
            ),
        })
        assert index.function_for("pkg.a.source") is not None
        resolved = index.resolve(index.modules["pkg.b"], "src")
        assert resolved == "pkg.a.source"

    def test_lazy_package_exports_resolve(self, tmp_path):
        # A package exporting through a {name: module} table re-exports
        # the name as a `from module import name` would.
        index = build_index(tmp_path, {
            "pkg/__init__.py": (
                "from repro import _lazy_exports\n"
                "__getattr__, __dir__ = _lazy_exports(globals(), {\n"
                "    'source': 'pkg.a',\n"
                "})\n"
            ),
            "pkg/a.py": "def source():\n    return 1\n",
            "pkg/b.py": (
                "from pkg import source\n"
                "def caller():\n"
                "    return source()\n"
            ),
        })
        assert index.function_for("pkg.source").name == "pkg.a.source"
        graph = build_callgraph(index)
        assert "pkg.a.source" in graph.reachable(["pkg.b.caller"])

    def test_repository_package_exports_resolve(self):
        index = ProjectIndex()
        for module in load_modules([SRC / "repro" / "faults"]):
            index.add(module)
        found = index.function_for("repro.faults.derive_seed")
        assert found.name == "repro.faults.recovery.derive_seed"

    def test_reachability_includes_helper(self, tmp_path):
        index = build_index(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/w.py": (
                "def helper(x):\n"
                "    return x\n"
                "def entry(xs):\n"
                "    return [helper(x) for x in xs]\n"
                "def unrelated():\n"
                "    return 0\n"
            ),
        })
        graph = build_callgraph(index)
        reachable = graph.reachable(["pkg.w.entry"])
        assert "pkg.w.helper" in reachable
        assert "pkg.w.unrelated" not in reachable

    def test_callable_reference_is_an_edge(self, tmp_path):
        # Process(target=fn) must make fn reachable even uncalled.
        index = build_index(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/w.py": (
                "def job():\n"
                "    return 1\n"
                "def entry(Process):\n"
                "    return Process(target=job)\n"
            ),
        })
        graph = build_callgraph(index)
        assert "pkg.w.job" in graph.reachable(["pkg.w.entry"])

    def test_default_worker_entries_match_shipped_modules(self, tmp_path):
        findings, _ = analyze_project([REPO_ROOT / "src"])
        # Implicitly exercises the default entry set over real sources;
        # the explicit check: the entries exist in the shipped index.
        index = ProjectIndex()
        for module in ("master", "pool", "transport"):
            path = REPO_ROOT / "src" / "repro" / "parallel" / f"{module}.py"
            index.add(parse_module(
                path.read_text(), str(path), f"parallel/{module}.py",
                name=f"repro.parallel.{module}",
            ))
        entries = default_worker_entries(index)
        # The one pipe loop every worker process runs, and both sessions.
        assert {
            "repro.parallel.transport._serve_session",
            "repro.parallel.master._SlaveSession.__init__",
            "repro.parallel.master._SlaveSession.step",
            "repro.parallel.pool._PoolSession.__init__",
            "repro.parallel.pool._PoolSession.step",
        } <= set(entries)


# -- dataflow / race unit behavior -------------------------------------------


class TestInterproceduralTaint:
    def test_taint_through_return_chain(self, tmp_path):
        index = build_index(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": (
                "import numpy as np\n"
                "def make():\n"
                "    return np.random.default_rng()\n"
                "def wrap():\n"
                "    return make()\n"
            ),
            "pkg/b.py": (
                "from pkg.a import wrap\n"
                "def use(dist):\n"
                "    return dist.sample(wrap())\n"
            ),
        })
        findings = analyze_taint(index)
        assert [f.rule for f in findings] == ["rng-taint"]
        assert findings[0].path.endswith("b.py")

    def test_seeded_rng_is_clean(self, tmp_path):
        index = build_index(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": (
                "import numpy as np\n"
                "def make(seed):\n"
                "    return np.random.default_rng(seed)\n"
                "def use(dist, seed):\n"
                "    return dist.sample(make(seed))\n"
            ),
        })
        assert analyze_taint(index) == []

    def test_clock_into_seed_derivation_fires(self, tmp_path):
        index = build_index(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": (
                "import time\n"
                "def reseed():\n"
                "    return derive_seed(int(time.time()), 0)\n"
            ),
        })
        findings = analyze_taint(index)
        assert [f.rule for f in findings] == ["clock-taint"]

    def test_race_requires_reachability(self, tmp_path):
        modules = {
            "pkg/__init__.py": "",
            "pkg/state.py": "CACHE = {}\n",
            "pkg/w.py": (
                "from pkg import state\n"
                "def mutate(k, v):\n"
                "    state.CACHE[k] = v\n"
                "def entry(k, v):\n"
                "    mutate(k, v)\n"
            ),
        }
        index = build_index(tmp_path, modules)
        graph = build_callgraph(index)
        hit = analyze_races(index, graph, ["pkg.w.entry"])
        assert [f.rule for f in hit] == ["shared-state-race"]
        # Same mutation, unreachable from the entry set: no finding.
        assert analyze_races(index, graph, ["pkg.w.missing"]) == []

    def test_local_shadowing_is_not_a_race(self, tmp_path):
        index = build_index(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/w.py": (
                "CACHE = {}\n"
                "def entry(k, v):\n"
                "    CACHE = {}\n"
                "    CACHE[k] = v\n"
                "    return CACHE\n"
            ),
        })
        graph = build_callgraph(index)
        assert analyze_races(index, graph, ["pkg.w.entry"]) == []


# -- suppressions over whole-program findings --------------------------------


class TestWholeProgramSuppression:
    def test_disable_comment_silences_cross_module_finding(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (tmp_path / "pkg" / "a.py").write_text(
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng()"
            "  # simlint: disable=global-rng\n"
        )
        (tmp_path / "pkg" / "b.py").write_text(
            "from pkg.a import make\n"
            "def use(dist):\n"
            "    return dist.sample(make())"
            "  # simlint: disable=rng-taint\n"
        )
        findings, _ = analyze_project([tmp_path], project_root=tmp_path)
        assert findings == []


# -- the CLI surface ----------------------------------------------------------


class TestWholeProgramCli:
    def make_project(self, tmp_path):
        project = tmp_path / "proj"
        project.mkdir()
        (project / "__init__.py").write_text("")
        (project / "a.py").write_text(
            "import numpy as np\n"
            "def make():\n"
            "    return np.random.default_rng()\n"
        )
        (project / "b.py").write_text(
            "from proj.a import make\n"
            "def use(dist):\n"
            "    return dist.sample(make())\n"
        )
        return project

    def test_whole_program_flag_finds_cross_module(self, tmp_path, capsys):
        project = self.make_project(tmp_path)
        assert simlint_main([str(project)]) == 1  # per-file only
        out = capsys.readouterr().out
        assert "rng-taint" not in out
        assert simlint_main([str(project), "--whole-program"]) == 1
        out = capsys.readouterr().out
        assert "rng-taint" in out


# -- the repository gate ------------------------------------------------------


class TestRepositoryGate:
    def test_src_has_zero_findings(self):
        """Acceptance: the whole-program pass over src reports
        nothing."""
        started = time.perf_counter()
        findings, scanned = analyze_project([REPO_ROOT / "src"])
        elapsed = time.perf_counter() - started
        assert scanned >= 99
        assert findings == [], "\n".join(
            f"{f.location()}: {f.rule}: {f.message}" for f in findings
        )
        assert elapsed < 10.0, f"whole-program pass took {elapsed:.1f}s"
