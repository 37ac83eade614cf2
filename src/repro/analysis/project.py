"""The analysis driver: per-file rules and, when asked, cross-module passes.

Every entry point goes the same way.  :func:`~repro.analysis.symbols.
load_modules` reads and parses each file once into a
:class:`~repro.analysis.symbols.ModuleInfo`; the driver runs the active
per-file rules over those records and — for :func:`analyze_project`,
i.e. ``python -m repro.analysis --whole-program`` — indexes the same
records into one symbol table and layers the cross-module passes on
top:

- :mod:`~repro.analysis.dataflow` — RNG / host-clock taint across
  function and module boundaries;
- :mod:`~repro.analysis.races` — module-level mutable state mutated
  from slave/worker-reachable code.

Per-file and whole-program findings then pass one ``# simlint:
disable=RULE`` filter and one ``(path, line, col, rule)`` sort.
:func:`lint_source`, :func:`lint_file` and :func:`lint_paths` are the
driver without the cross-module passes.

Test modules are excluded from the cross-module passes by default
(tests legitimately build fixed-seed generators and poke shared
fixtures); a fixture corpus *of* hazards analyzes itself by passing
``project_root`` so its files load as library code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.callgraph import build_callgraph, default_worker_entries
from repro.analysis.dataflow import analyze_taint
from repro.analysis.linter import Finding, LintError, suppressed_rules
from repro.analysis.modellint import MODEL_RULES
from repro.analysis.races import analyze_races
from repro.analysis.rules import RULES
from repro.analysis.symbols import (
    ModuleInfo,
    ProjectIndex,
    load_modules,
    parse_module,
)

#: Whole-program rule catalog: id -> one-line summary (the analogue of
#: ``RULES`` for passes that need the full project, not one module).
WHOLE_PROGRAM_RULES: Dict[str, str] = {
    "rng-taint": (
        "no unseeded/global RNG value reaching a sampling, event, or "
        "merge path, across function and module boundaries"
    ),
    "clock-taint": (
        "no host-clock value reaching a sampling, event, merge, or "
        "seed-derivation path, across function and module boundaries"
    ),
    "shared-state-race": (
        "no module-level mutable state (or closure capture) mutated "
        "from code reachable by slave/worker entry points"
    ),
}


def rule_catalog() -> Dict[str, Tuple[str, str]]:
    """Every rule id -> ``(kind, summary)``, the three registries as one.

    ``kind`` is ``per-file`` (:data:`~repro.analysis.rules.RULES`),
    ``whole-program`` (:data:`WHOLE_PROGRAM_RULES`) or ``model-lint``
    (:data:`~repro.analysis.modellint.MODEL_RULES`).
    """
    catalog = {
        rule_id: ("per-file", rule.summary) for rule_id, rule in RULES.items()
    }
    for kind, summaries in (
        ("whole-program", WHOLE_PROGRAM_RULES),
        ("model-lint", MODEL_RULES),
    ):
        for rule_id, summary in summaries.items():
            catalog[rule_id] = (kind, summary)
    return catalog


def source_rules(whole_program: bool = True) -> Dict[str, str]:
    """id -> summary of the rules a run over source files can fire.

    This is what ``--select`` / ``--disable`` accept and what a SARIF
    report lists: the per-file rules, plus the cross-module ones when
    the run includes them.
    """
    kinds = ("per-file", "whole-program") if whole_program else ("per-file",)
    return {
        rule_id: summary
        for rule_id, (kind, summary) in rule_catalog().items()
        if kind in kinds
    }


def all_rule_ids() -> List[str]:
    """Every known rule id: per-file registry + whole-program passes."""
    return sorted(source_rules())


def run_rules(
    modules: Iterable[ModuleInfo],
    select: Optional[Iterable[str]] = None,
    disable: Optional[Iterable[str]] = None,
    whole_program: bool = False,
    worker_entries: Optional[Iterable[str]] = None,
    include_tests_in_program: bool = False,
) -> Tuple[List[Finding], int]:
    """The driver: active rules over a stream of loaded modules.

    Returns ``(findings, modules_seen)``, findings suppressed and in
    report order.  A module is dropped once the per-file rules have
    seen it unless a cross-module pass is active and will index it.
    Unknown ids in ``select`` / ``disable`` raise :class:`LintError`
    against the rules this run can fire, so ``--select rng-taint`` is
    legal exactly when the cross-module passes run.
    """
    known = source_rules(whole_program)
    selected, disabled = set(select or ()), set(disable or ())
    unknown = (selected | disabled) - set(known)
    if unknown:
        raise LintError(
            f"unknown rule id(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}"
        )
    active = {
        rule_id
        for rule_id in known
        if (not selected or rule_id in selected) and rule_id not in disabled
    }
    per_file = [RULES[rule_id] for rule_id in sorted(active & set(RULES))]
    cross_module = bool(active & set(WHOLE_PROGRAM_RULES))

    findings: List[Finding] = []
    lines: Dict[str, List[str]] = {}  # display path -> source lines
    index = ProjectIndex()
    for module in modules:
        lines[module.path] = module.lines
        for rule in per_file:
            if rule.applies(module):
                findings.extend(rule.check(module))
        if cross_module and (
            include_tests_in_program or not module.rel.startswith("tests/")
        ):
            index.add(module)

    if active & {"rng-taint", "clock-taint"}:
        findings.extend(f for f in analyze_taint(index) if f.rule in active)
    if "shared-state-race" in active:
        graph = build_callgraph(index)
        entries = (
            list(worker_entries)
            if worker_entries is not None
            else default_worker_entries(index)
        )
        findings.extend(analyze_races(index, graph, entries))

    reported = []
    for finding in findings:
        waived = suppressed_rules(
            lines[finding.path], finding.line, finding.end_line or finding.line
        )
        if finding.rule not in waived and "all" not in waived:
            reported.append(finding)
    # Sorted globally by (path, line, col, rule) — not by filesystem
    # iteration order — so text/JSON/SARIF reports and baseline diffs
    # are byte-stable across machines and path-argument orderings.
    reported.sort(key=Finding.sort_key)
    return reported, len(lines)


def lint_source(
    source: str,
    rel: str,
    path: Optional[str] = None,
    select: Optional[Iterable[str]] = None,
    disable: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one module given as a source string.

    ``rel`` is the package-relative path rules scope on (e.g.
    ``"engine/simulation.py"`` or ``"tests/test_foo.py"``); ``path`` is
    the display path used in findings (defaults to ``rel``).
    """
    module = parse_module(source, path or rel, rel)
    return run_rules([module], select, disable)[0]


def lint_file(
    path: Path,
    select: Optional[Iterable[str]] = None,
    disable: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Lint one file on disk."""
    return run_rules(load_modules([path]), select, disable)[0]


def lint_paths(
    paths: Iterable,
    select: Optional[Iterable[str]] = None,
    disable: Optional[Iterable[str]] = None,
) -> Tuple[List[Finding], int]:
    """Lint every ``*.py`` file under ``paths`` with the per-file rules.

    Returns ``(findings, files_scanned)``, findings in report order.
    """
    return run_rules(load_modules(paths), select, disable)


def analyze_project(
    paths: Iterable,
    select: Optional[Iterable[str]] = None,
    disable: Optional[Iterable[str]] = None,
    project_root: Optional[Path] = None,
    worker_entries: Optional[Iterable[str]] = None,
    include_tests_in_program: bool = False,
) -> Tuple[List[Finding], int]:
    """Run per-file rules plus the whole-program passes.

    Returns ``(findings, files_scanned)``, findings in report order.
    ``worker_entries`` overrides the race detector's slave/worker roots
    (global function names); the default is the shipped
    parallel/pool/sweep entry set.
    """
    return run_rules(
        load_modules(paths, project_root),
        select,
        disable,
        whole_program=True,
        worker_entries=worker_entries,
        include_tests_in_program=include_tests_in_program,
    )
