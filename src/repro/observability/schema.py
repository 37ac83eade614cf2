"""The trace-record schema and its validator.

One trace file is JSON lines: each line is a flat object with

========== ========= ====================================================
key        type      meaning
========== ========= ====================================================
seq        int >= 1  monotonic per-tracer sequence number
kind       str       one of ``counter`` / ``gauge`` / ``event`` / ``span``
name       str       what is being measured (``events``, ``phase`` ...)
component  str       which layer emitted it (``engine``, ``statistic``,
                     ``master``, ``slave``, ``experiment``, ``cli``)
sim_time   float?    simulated seconds, or null outside the clock
value      float?    sample value (counters and gauges)
fields     object?   free-form extra context
host_time  float?    host clock at emission (boundary-injected only)
host_duration float? span duration in host seconds (spans only)
========== ========= ====================================================

``host_*`` keys are the only nondeterministic content: two runs of the
same seed must produce byte-identical traces once those keys are
stripped (:func:`strip_host_fields`).  The validator is dependency-free
on purpose: it needs nothing beyond the standard library.  The tests
``test_trace_flag_writes_valid_jsonl`` and ``test_trace_validator_cli``
in ``tests/test_cli.py`` run it on the trace ``repro run --trace``
writes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Tuple, Union

from repro.observability.tracer import KINDS

#: Keys every record must carry.
REQUIRED_KEYS = ("seq", "kind", "name", "component", "sim_time")

#: Optional keys with their accepted types.
OPTIONAL_KEYS = {
    "value": (int, float),
    "fields": (dict,),
    "host_time": (int, float),
    "host_duration": (int, float),
}

#: Keys whose values legitimately differ between identical-seed runs.
HOST_KEYS = ("host_time", "host_duration")


def validate_record(record: object) -> List[str]:
    """Schema errors for one decoded record (empty list when valid)."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be a JSON object, got {type(record).__name__}"]
    for key in REQUIRED_KEYS:
        if key not in record:
            errors.append(f"missing required key {key!r}")
    seq = record.get("seq")
    if "seq" in record and (not isinstance(seq, int) or seq < 1):
        errors.append(f"seq must be a positive integer, got {seq!r}")
    kind = record.get("kind")
    if "kind" in record and kind not in KINDS:
        errors.append(f"kind must be one of {KINDS}, got {kind!r}")
    for key in ("name", "component"):
        if key in record and (
            not isinstance(record[key], str) or not record[key]
        ):
            errors.append(f"{key} must be a non-empty string")
    sim_time = record.get("sim_time")
    if "sim_time" in record and sim_time is not None and not isinstance(
        sim_time, (int, float)
    ):
        errors.append(f"sim_time must be a number or null, got {sim_time!r}")
    for key, types in OPTIONAL_KEYS.items():
        if key in record and not isinstance(record[key], types):
            errors.append(
                f"{key} must be {'/'.join(t.__name__ for t in types)}, "
                f"got {type(record[key]).__name__}"
            )
    known = set(REQUIRED_KEYS) | set(OPTIONAL_KEYS)
    for key in record:
        if key not in known:
            errors.append(f"unknown key {key!r}")
    if kind in ("counter", "gauge") and "value" not in record:
        errors.append(f"{kind} records require a value")
    return errors


def validate_trace_lines(
    lines: Iterable[str],
) -> Tuple[int, List[str]]:
    """Validate decoded JSONL content; returns ``(records, errors)``.

    Errors are prefixed with the 1-based line number.  Sequence numbers
    must be strictly increasing across the file (one tracer per file).
    """
    errors: List[str] = []
    count = 0
    last_seq = 0
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        count += 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"line {line_number}: invalid JSON: {error}")
            continue
        for problem in validate_record(record):
            errors.append(f"line {line_number}: {problem}")
        seq = record.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                errors.append(
                    f"line {line_number}: seq {seq} is not greater than "
                    f"previous seq {last_seq}"
                )
            last_seq = seq
    return count, errors


def validate_trace_file(path: Union[str, Path]) -> Tuple[int, List[str]]:
    """Validate one trace file; returns ``(records, errors)``."""
    with Path(path).open() as handle:
        return validate_trace_lines(handle)


def strip_host_fields(record: dict) -> dict:
    """A copy of ``record`` without the nondeterministic host keys."""
    return {key: value for key, value in record.items() if key not in HOST_KEYS}
