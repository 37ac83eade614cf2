"""Atomic experiment checkpoints: write, read, validate.

A checkpoint captures everything the master needs to restore a parallel
run *exactly*: the calibrated bin schemes and convergence targets, the
merged histogram state, the round counter, and — the key trick — each
slave's **work log** (its seed, generation, and the exact sequence of
chunk quotas it has completed).  Slave state itself is never
serialized: a slave at round k is a pure function of ``(seed, bin
scheme, chunk history)``, so resume rebuilds each slave and *replays*
its logged chunks, landing bit-for-bit on the interrupted state.  An
interrupted-and-resumed run therefore produces byte-identical merged
histograms to an uninterrupted one.

Format: JSON lines (one record object per line, ``record`` key naming
the type) so the file is greppable and the reader is dependency-free,
with the one large array — merged bin counts — packed as little-endian
int64 binary, base64-encoded, rather than a million-token JSON list.
The final ``end`` record carries the expected record count, so a
truncated file (death mid-write on a non-atomic filesystem) is detected
rather than half-loaded; writes go through a temp file + ``os.replace``
so a crash mid-checkpoint leaves the previous checkpoint intact.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Tuple, Union, get_type_hints

import numpy as np

from repro.core.histogram import BinScheme, HistogramError
from repro.shape import checked

#: Bump when the record layout changes incompatibly.
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Raised for unreadable, truncated, or incompatible checkpoints."""


@dataclass
class SlaveCheckpoint:
    """One slave's restorable state: identity plus its work log.

    The master's run book keeps these records live and the file's
    ``slave`` record is these fields in this order, so a per-slave
    quantity is declared here and nowhere else.  A field with a default
    may be absent from a file; the others may not.
    """

    slave_id: int
    seed: int
    generation: int
    #: Chunk quotas completed *and merged*, oldest first; resume replays
    #: exactly this sequence.
    chunks: List[int] = field(default_factory=list)
    #: Quota commanded but never reported (owed to a replacement).
    owed: int = 0
    #: Validation fingerprints: where replay must land.
    events_processed: int = 0
    total_accepted: int = 0
    restarts: int = 0
    #: Accounting carried over from dead predecessor incarnations
    #: (their merged contributions remain valid observations).
    prior_events: int = 0
    prior_accepted: int = 0


@dataclass
class CheckpointState:
    """The full restorable master state (see module docstring)."""

    master_seed: int
    n_slaves: int
    chunk_size: int
    adaptive_chunking: bool
    max_chunk_size: int
    delta_reports: bool
    round: int
    master_events: int = 0
    total_restarts: int = 0
    version: int = CHECKPOINT_VERSION
    #: metric name -> scheme payload tuple (low, high, bins).
    schemes: Dict[str, tuple] = field(default_factory=dict)
    #: metric name -> MetricTargets.to_record() dict.
    targets: Dict[str, dict] = field(default_factory=dict)
    #: metric name -> merged Histogram.to_payload() dict.
    merged: Dict[str, dict] = field(default_factory=dict)
    #: One per slave id, ascending; a dead slave keeps its record.
    slaves: List[SlaveCheckpoint] = field(default_factory=list)
    #: Permanently dead slave ids -> cause code.
    dead: Dict[int, str] = field(default_factory=dict)
    #: Every seed issued so far: [(seed, slave_id, generation), ...].
    lineage: List[Tuple[int, int, int]] = field(default_factory=list)


# A record's shape is {key: the type its JSON value must have}, in the
# order the keys are written.  The ``meta`` record is the state's scalar
# fields, ``version`` first so a reader can refuse a file before decoding
# the rest, and the ``slave`` record is SlaveCheckpoint's fields; the
# other kinds have no class behind them.
_SCHEME = Tuple[float, float, int]
_META = {"version": int, **{
    key: hint
    for key, hint in get_type_hints(CheckpointState).items()
    if hint in (int, bool)
}}
#: The histogram payload nested in a ``metric`` record.
_MERGED = {
    "scheme": _SCHEME, "counts": str,
    "underflow": int, "overflow": int, "count": int,
    "sum": float, "sum_sq": float,
    "min_seen": Union[float, str], "max_seen": Union[float, str],
}
#: The kinds between ``meta`` and ``end``.
_SHAPES = {
    "metric": {"name": str, "scheme": _SCHEME, "targets": dict, "merged": dict},
    "slave": get_type_hints(SlaveCheckpoint),
    "dead": {"slave_id": int, "cause": str},
    "lineage": {"seeds": List[Tuple[int, int, int]]},
}
#: Keys a record may omit: the dataclass fields that carry a default.
_OPTIONAL = {
    spec.name
    for cls in (SlaveCheckpoint, CheckpointState)
    for spec in fields(cls)
    if spec.default is not MISSING
}
#: inf/-inf are not JSON; histograms use them as extrema sentinels.
_INFINITIES = {"inf": math.inf, "-inf": -math.inf}


def _record_fields(record: dict, shape: dict, where: str) -> dict:
    """``record`` (bar its ``record`` kind) in ``shape``'s key order, once
    every key fits it."""
    body = {key: value for key, value in record.items() if key != "record"}
    return checked(body, shape, where, CheckpointError, shape.keys() - _OPTIONAL)


def _encode_merged(payload: dict) -> dict:
    """Histogram payload with the bin counts as base64 little-endian
    int64 (the binary payload) and JSON-safe extrema."""
    encoded = dict(payload)
    encoded["counts"] = base64.b64encode(
        np.asarray(payload["counts"], dtype="<i8").tobytes()
    ).decode("ascii")
    for key in ("min_seen", "max_seen"):
        if math.isinf(payload[key]):
            encoded[key] = "inf" if payload[key] > 0 else "-inf"
    return encoded


def _decode_merged(encoded: dict, where: str) -> dict:
    """Inverse of :func:`_encode_merged`."""
    payload = _record_fields(encoded, _MERGED, where)
    try:
        raw = base64.b64decode(payload["counts"].encode("ascii"), validate=True)
        payload["counts"] = [int(v) for v in np.frombuffer(raw, dtype="<i8")]
        for key in ("min_seen", "max_seen"):
            if isinstance(payload[key], str):
                payload[key] = _INFINITIES[payload[key]]
    except (ValueError, KeyError) as error:
        raise CheckpointError(f"{where}: undecodable: {error!r}") from error
    payload["scheme"] = tuple(payload["scheme"])
    return payload


def write_checkpoint(path: Union[str, Path], state: CheckpointState) -> Path:
    """Atomically write ``state`` to ``path`` (temp file + rename)."""
    path = Path(path)
    records: List[dict] = [
        {"record": "meta", **{key: getattr(state, key) for key in _META}}
    ]
    for name in sorted(state.schemes):
        records.append(
            {
                "record": "metric",
                "name": name,
                "scheme": list(state.schemes[name]),
                "targets": state.targets.get(name, {}),
                "merged": _encode_merged(state.merged[name]),
            }
        )
    for slave in sorted(state.slaves, key=lambda s: s.slave_id):
        records.append(
            {"record": "slave", **{key: getattr(slave, key) for key in _SHAPES["slave"]}}
        )
    for slave_id in sorted(state.dead):
        records.append(
            {"record": "dead", "slave_id": slave_id, "cause": state.dead[slave_id]}
        )
    records.append(
        {"record": "lineage", "seeds": [list(entry) for entry in state.lineage]}
    )
    records.append({"record": "end", "records": len(records) + 1})
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def _read_records(path: Path) -> List[Tuple[str, dict]]:
    """``[(where, record), ...]``: the file's lines, framing verified."""
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    records: List[Tuple[str, dict]] = []
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as error:  # JSONDecodeError, or an absurd integer
            raise CheckpointError(
                f"{path}:{line_number}: invalid JSON: {error}"
            ) from error
        kind = record.get("record") if isinstance(record, dict) else None
        if not isinstance(kind, str):
            raise CheckpointError(
                f"{path}:{line_number}: not a checkpoint record"
            )
        records.append((f"{path}:{line_number}: {kind} record", record))
    if not records or records[0][1]["record"] != "meta":
        raise CheckpointError(f"{path}: missing meta record")
    end = records[-1][1]
    if end["record"] != "end":
        raise CheckpointError(
            f"{path}: missing end record (truncated checkpoint?)"
        )
    if end.get("records") != len(records):
        raise CheckpointError(
            f"{path}: end record expects {end.get('records')} "
            f"records, found {len(records)} (truncated checkpoint?)"
        )
    return records


def read_checkpoint(path: Union[str, Path]) -> CheckpointState:
    """Read a checkpoint file, or raise :class:`CheckpointError`.

    Nothing is adopted unchecked: every record carries exactly the keys
    of its kind (bar the optional ones) with values of the declared
    types, a merged histogram is a sound one on its metric's bin scheme,
    and there is one ``slave`` record per slave id and one lineage.
    """
    # repro.parallel imports this module, so what it owns of the format
    # (the targets record, the histogram check) is looked up at call time.
    from repro.parallel.protocol import MetricTargets, validate_report_payload

    path = Path(path)
    records = _read_records(path)
    where, meta = records[0]
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {meta.get('version')} is not "
            f"supported (expected {CHECKPOINT_VERSION})"
        )
    state = CheckpointState(**_record_fields(meta, _META, where))
    targets_shape = get_type_hints(MetricTargets)
    del targets_shape["name"]  # the metric record carries it
    seen = set()
    for where, record in records[1:-1]:
        kind = record["record"]
        if kind not in _SHAPES:
            raise CheckpointError(f"{where}: unknown record type")
        body = _record_fields(record, _SHAPES[kind], where)
        identity = (kind, body.get("name", body.get("slave_id")))
        if identity in seen:
            raise CheckpointError(f"{where}: recorded twice")
        seen.add(identity)
        if kind == "metric":
            name = body["name"]
            scheme = state.schemes[name] = tuple(body["scheme"])
            try:
                BinScheme(*scheme)
            except HistogramError as error:
                raise CheckpointError(f"{where}: {error}") from error
            state.targets[name] = _record_fields(
                body["targets"], targets_shape, f"{where}.targets"
            )
            merged = _decode_merged(body["merged"], f"{where}.merged")
            problem = validate_report_payload(merged, scheme)
            if problem is not None:
                raise CheckpointError(f"{where}.merged: {problem}")
            state.merged[name] = merged
        elif kind == "slave":
            state.slaves.append(SlaveCheckpoint(**body))
        elif kind == "dead":
            state.dead[body["slave_id"]] = body["cause"]
        else:
            state.lineage = [tuple(entry) for entry in body["seeds"]]
    if not state.merged:
        raise CheckpointError(f"{path}: checkpoint has no metric records")
    if ("lineage", None) not in seen:
        raise CheckpointError(f"{path}: checkpoint has no lineage record")
    state.slaves.sort(key=lambda slave: slave.slave_id)
    fleet = [slave.slave_id for slave in state.slaves]
    if len(fleet) != state.n_slaves or fleet != list(range(len(fleet))):
        raise CheckpointError(
            f"{path}: expected one slave record for each of "
            f"{state.n_slaves} slaves"
        )
    if not state.dead.keys() <= set(fleet):
        raise CheckpointError(f"{path}: dead record for an unknown slave")
    return state
