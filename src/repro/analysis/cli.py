"""``python -m repro.analysis`` — the simlint command line.

Usage::

    python -m repro.analysis src tests              # per-file rules
    python -m repro.analysis src --whole-program    # + cross-module passes
    python -m repro.analysis --list-rules           # full rule catalog

Exit codes: ``0`` clean (no findings), ``1`` at least one
non-suppressed finding, ``2`` usage, I/O, or internal analyzer error.
Exit 2 is load-bearing for CI: a crash must not be mistaken for a
clean pass.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.linter import LintError
from repro.analysis.project import rule_catalog, run_rules
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
        choices=("text", "json"),
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


def _emit(args, findings, scanned: int) -> None:
    """Render the report in the requested format to stdout or --out."""
    out = sys.stdout
    close = False
    if args.out is not None:
        out = open(args.out, "w")
        close = True
    try:
        if args.format == "json":
            json.dump(
                {
                    "version": 1,
                    "files_scanned": scanned,
                    "findings": [f.to_dict() for f in findings],
                },
                out,
                indent=2,
            )
            out.write("\n")
        else:
            for finding in findings:
                print(finding.report_line(), file=out)
            noun = "finding" if len(findings) == 1 else "findings"
            print(
                f"simlint: {len(findings)} {noun} in {scanned} "
                "file(s) scanned",
                file=out,
            )
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
    _emit(args, findings, scanned)
    return 1 if findings else 0


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
