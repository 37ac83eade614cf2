"""Correctness tooling: static analysis + runtime determinism sanitizer.

BigHouse's statistics stack (runs-up independence, online histograms,
convergence-terminated measurement) is only trustworthy if every random
draw is seed-deterministic and the serial/parallel and prefetch-on/off
configurations are step-identical.  This package enforces those
invariants two ways:

- **simlint** (:mod:`repro.analysis.rules`, driven by
  :mod:`repro.analysis.project`) — an AST static-analysis pass run as
  ``python -m repro.analysis``.  It
  checks simulation-correctness rules (no global RNG, no wall-clock in
  hot paths, the ``prefetch_safe`` declaration contract, no event-record
  mutation outside the engine, no float ``==`` on simulated time, no
  lambdas crossing the pickled parallel protocol, no name used outside
  the modules that own it).  Findings can be suppressed per line with
  ``# simlint: disable=RULE``.

- **the whole-program pass** (``--whole-program``) — the same parsed
  modules indexed into a project-wide symbol table
  (:mod:`repro.analysis.symbols`) and call graph
  (:mod:`repro.analysis.callgraph`) feed two cross-module analyses:
  RNG/host-clock taint dataflow (:mod:`repro.analysis.dataflow`) and
  slave-reachable shared-state race detection
  (:mod:`repro.analysis.races`).

- **the model lint** (:mod:`repro.analysis.modellint`, surfaced as
  ``repro run --lint`` / ``repro sweep --lint``) — static validation
  of config documents and SweepSpecs against ``repro.theory`` and the
  seed lineage: unstable (rho >= 1) grid points, seed collisions,
  cache-digest-unstable constructs, fastpath qualification forecasts.

- **the determinism sanitizer** (:mod:`repro.analysis.sanitizer`) — an
  opt-in runtime probe (``Experiment(..., sanitize=True)`` or
  ``repro run --sanitize``) that hashes the event-dispatch stream and
  RNG block boundaries so A/B configurations (prefetch on vs off,
  serial vs process backends) can be asserted bit-identical, and that
  cross-checks every prefetched block against per-draw replay.

See ``docs/analysis.md`` for the rule catalog and extension guide.
"""

from repro import _lazy_exports

__all__ = [
    "Finding",
    "LintError",
    "SEVERITIES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "Rule",
    "RULES",
    "register_rule",
    "WHOLE_PROGRAM_RULES",
    "all_rule_ids",
    "analyze_project",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "SEVERITIES": "repro.analysis.linter",
    "Finding": "repro.analysis.linter",
    "LintError": "repro.analysis.linter",
    "WHOLE_PROGRAM_RULES": "repro.analysis.project",
    "all_rule_ids": "repro.analysis.project",
    "analyze_project": "repro.analysis.project",
    "lint_file": "repro.analysis.project",
    "lint_paths": "repro.analysis.project",
    "lint_source": "repro.analysis.project",
    "RULES": "repro.analysis.rules",
    "Rule": "repro.analysis.rules",
    "register_rule": "repro.analysis.rules",
})
