"""``python -m repro.observability <trace.jsonl>`` — trace validation.

Validates one or more JSON-lines trace files against the schema in
:mod:`repro.observability.schema`.  Exit codes: ``0`` all valid, ``1``
schema violations found, ``2`` usage or I/O error.
``tests/test_cli.py::TestRunObservability::test_trace_validator_cli``
runs this on the trace ``repro run --trace`` writes.
"""

from __future__ import annotations

import argparse
import sys

from repro.observability.schema import validate_trace_file


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability",
        description="validate JSON-lines trace files against the schema",
    )
    parser.add_argument("paths", nargs="+", help="trace files to validate")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-file summaries"
    )
    args = parser.parse_args(argv)
    failed = False
    for path in args.paths:
        try:
            records, errors = validate_trace_file(path)
        except OSError as error:
            print(f"trace-validate: cannot read {path}: {error}",
                  file=sys.stderr)
            return 2
        for problem in errors:
            print(f"{path}: {problem}", file=sys.stderr)
        if errors:
            failed = True
        if not args.quiet:
            status = "INVALID" if errors else "ok"
            print(
                f"{path}: {records} record(s), {len(errors)} error(s) "
                f"[{status}]"
            )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
