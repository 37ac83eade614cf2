"""``python -m repro.analysis`` — the simlint command line.

Usage::

    python -m repro.analysis src tests              # per-file rules
    python -m repro.analysis src --whole-program    # + cross-module passes
    python -m repro.analysis src --whole-program \\
        --baseline .simlint-baseline.json           # gate on NEW findings
    python -m repro.analysis src --whole-program \\
        --write-baseline .simlint-baseline.json     # (re)accept current state
    python -m repro.analysis src --format sarif --out simlint.sarif
    python -m repro.analysis --list-rules           # full rule catalog

Exit codes: ``0`` clean (no findings, or every finding baselined),
``1`` at least one new non-suppressed finding, ``2`` usage, I/O, or
internal analyzer error.  Exit 2 is load-bearing for CI: a crash must
not be mistaken for a clean pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.baseline import (
    BaselineResult,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.linter import LintError
from repro.analysis.project import rule_catalog, run_rules, source_rules
from repro.analysis.sarif import to_sarif, validate_sarif
from repro.analysis.symbols import load_modules


def build_parser() -> argparse.ArgumentParser:
    """The simlint argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "simlint: AST-based determinism & simulation-correctness "
            "analyzer (see docs/analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help=(
            "also run the cross-module passes (rng/clock taint "
            "dataflow, shared-state race detection)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--disable",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "baseline file: findings recorded there are reported but "
            "do not fail the gate"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split_ids(raw):
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _list_rules() -> int:
    catalog = rule_catalog()
    width = max(len(rule_id) for rule_id in catalog)
    for rule_id, (kind, summary) in sorted(catalog.items()):
        print(f"{rule_id:<{width}}  [{kind}] {summary}")
    return 0


def _emit(
    args,
    findings,
    scanned: int,
    gate: BaselineResult,
    baselined_active: bool,
) -> None:
    """Render the report in the requested format to stdout or --out."""
    out = sys.stdout
    close = False
    if args.out is not None:
        out = open(args.out, "w")
        close = True
    try:
        if args.format == "sarif":
            state = None
            if baselined_active:
                baselined = {id(f) for f in gate.baselined}
                state = {
                    position: (
                        "unchanged" if id(f) in baselined else "new"
                    )
                    for position, f in enumerate(findings)
                }
            document = to_sarif(
                findings,
                rules=source_rules(args.whole_program),
                baseline_state=state,
            )
            problems = validate_sarif(document)
            if problems:
                raise LintError(
                    "internal error: emitted SARIF failed validation: "
                    + "; ".join(problems)
                )
            json.dump(document, out, indent=2, sort_keys=True)
            out.write("\n")
        elif args.format == "json":
            json.dump(
                {
                    "version": 1,
                    "files_scanned": scanned,
                    "findings": [f.to_dict() for f in findings],
                    "new": len(gate.new),
                    "baselined": len(gate.baselined),
                    "stale_baseline_entries": len(gate.stale),
                },
                out,
                indent=2,
            )
            out.write("\n")
        else:
            baselined = {id(f) for f in gate.baselined}
            for finding in findings:
                tag = (
                    " [baselined]"
                    if baselined_active and id(finding) in baselined
                    else ""
                )
                print(f"{finding.report_line()}{tag}", file=out)
            noun = "finding" if len(findings) == 1 else "findings"
            summary = (
                f"simlint: {len(findings)} {noun} in {scanned} "
                "file(s) scanned"
            )
            if baselined_active:
                summary += (
                    f" ({len(gate.new)} new, {len(gate.baselined)} "
                    f"baselined, {len(gate.stale)} stale baseline "
                    "entr(ies))"
                )
            print(summary, file=out)
    finally:
        if close:
            out.close()


def _run(args) -> int:
    findings, scanned = run_rules(
        load_modules(args.paths),
        select=_split_ids(args.select),
        disable=_split_ids(args.disable),
        whole_program=args.whole_program,
    )

    if args.write_baseline is not None:
        count = write_baseline(findings, args.write_baseline)
        print(
            f"simlint: wrote {count} baseline entr(ies) to "
            f"{args.write_baseline}"
        )
        return 0

    baselined_active = args.baseline is not None
    if baselined_active:
        gate = apply_baseline(findings, load_baseline(args.baseline))
    else:
        gate = BaselineResult(new=list(findings), baselined=[], stale=[])

    _emit(args, findings, scanned, gate, baselined_active)
    return 1 if gate.new else 0


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        return _list_rules()
    try:
        return _run(args)
    except LintError as error:
        print(f"simlint: error: {error}", file=sys.stderr)
        return 2
    except Exception as error:
        # An analyzer crash must exit 2, never masquerade as "clean".
        print(
            f"simlint: internal error: {type(error).__name__}: {error}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
