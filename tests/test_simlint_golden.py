"""simlint's findings as a format: pinned tuples, fingerprints and SARIF.

``tests/fixtures/simlint_golden.json`` was recorded at the commit
*before* ``repro.analysis`` was folded onto one loader, one driver and
one finding constructor (``PYTHONPATH=src python -m
tests.test_simlint_golden`` from the repository root re-records it).
It holds, for the hazard corpus under ``tests/fixtures/wpa_corpus`` and
for every entry of ``tests/test_simlint.py``'s ``FIRING_SNIPPETS``:

- the full finding tuples (rule, path, line, col, end_line, severity,
  message) in report order;
- their baseline fingerprints;
- the SARIF document over all of them.

Everything is computed from the repository root with relative paths, so
the paths inside findings, messages and fingerprints are
repo-relative and the fixture does not depend on where the checkout
lives.  A refactor of the analyzer that is meant to keep what users
see must leave this test green without touching the fixture.
"""

import json
import os
from pathlib import Path

from repro.analysis import (
    RULES,
    WHOLE_PROGRAM_RULES,
    analyze_project,
    fingerprints,
    lint_source,
    to_sarif,
)
from tests.test_simlint import FIRING_SNIPPETS
from tests.test_wholeprogram import WORKER_ENTRIES

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "fixtures" / "simlint_golden.json"


def golden_document():
    """Findings, fingerprints and SARIF as the fixture records them."""
    previous = os.getcwd()
    os.chdir(REPO_ROOT)
    try:
        groups = {}
        groups["corpus"], scanned = analyze_project(
            [Path("tests/fixtures/wpa_corpus")],
            project_root=Path("tests/fixtures"),
            worker_entries=WORKER_ENTRIES,
        )
        assert scanned == 7
        for rule_id in sorted(FIRING_SNIPPETS):
            source, rel = FIRING_SNIPPETS[rule_id]
            groups[f"snippet:{rule_id}"] = lint_source(source, rel=rel)
    finally:
        os.chdir(previous)
    catalog = {rule_id: rule.summary for rule_id, rule in RULES.items()}
    catalog.update(WHOLE_PROGRAM_RULES)
    return {
        "findings": {
            name: [
                [f.rule, f.path, f.line, f.col, f.end_line, f.severity,
                 f.message]
                for f in group
            ]
            for name, group in groups.items()
        },
        "fingerprints": {
            name: fingerprints(group) for name, group in groups.items()
        },
        "sarif": to_sarif(
            [f for group in groups.values() for f in group], rules=catalog
        ),
    }


def test_findings_fingerprints_and_sarif_match_the_recording():
    recorded = json.loads(GOLDEN.read_text())
    rebuilt = golden_document()
    assert rebuilt["findings"] == recorded["findings"]
    assert rebuilt["fingerprints"] == recorded["fingerprints"]
    assert rebuilt["sarif"] == recorded["sarif"]


def test_recording_is_not_trivial():
    recorded = json.loads(GOLDEN.read_text())["findings"]
    assert {row[0] for row in recorded["corpus"]} >= {
        "global-rng", "rng-taint", "clock-taint", "shared-state-race",
    }
    for rule_id in FIRING_SNIPPETS:
        assert rule_id in {row[0] for row in recorded[f"snippet:{rule_id}"]}


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    GOLDEN.write_text(
        json.dumps(golden_document(), indent=2, sort_keys=True) + "\n"
    )
