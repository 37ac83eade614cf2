"""The checkpoint file as a format: pinned bytes and a decoder that refuses.

``tests/fixtures/checkpoint_v2.jsonl`` pins format version 2
(``python tests/test_checkpoint_format.py`` re-records it and the
results beside it).  Its scenario leaves nothing trivial: slave 1 is
killed in round 2 and respawned (generation, restarts, ``prior_*`` and
a five-entry lineage), then its replacement is killed in round 3 with
the restart budget spent (a ``dead`` record and an ``owed`` quota).
Three contracts hang off it:

- the same run still writes the same bytes, ``write(read(f)) == f``,
  and resuming from it lands on the recorded digests;
- every malformed record is a :class:`CheckpointError` that names the
  file, the record kind and the key — never a raw exception, never a
  state of the wrong shape;
- hypothesis mutates the fixture (drop a key, swap a type, truncate,
  duplicate or reorder records, corrupt the base64): the decoder either
  refuses or reads the state the fixture holds.
"""

import base64
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    CheckpointError,
    FaultPlan,
    FaultSpec,
    RespawnPolicy,
    read_checkpoint,
    write_checkpoint,
)
from repro.parallel import ParallelSimulation

FIXTURE = Path(__file__).parent / "fixtures" / "checkpoint_v2.jsonl"
EXPECTED = FIXTURE.with_name("checkpoint_v2.expected.json")


def factory(seed, accuracy=0.02):
    """Module-level factory (picklable for the process backend)."""
    from repro import Experiment, Server
    from repro.workloads import web

    experiment = Experiment(seed=seed, warmup_samples=300,
                            calibration_samples=2000)
    server = Server(cores=1)
    experiment.add_source(web().at_load(0.6), target=server)
    experiment.track_response_time(
        server, mean_accuracy=accuracy, quantiles={0.95: 0.1}
    )
    return experiment


ONE_RESTART = RespawnPolicy(max_restarts_per_slave=1,
                            backoff_base=0.0, jitter=0.0)
PLAN = FaultPlan(specs=(
    FaultSpec(kind="kill", slave_id=1, round=2, phase="pre_report"),
    FaultSpec(kind="kill", slave_id=1, round=3, generation=1,
              phase="pre_report"),
))
KW = dict(n_slaves=3, master_seed=7, chunk_size=400, respawn=ONE_RESTART)


def interrupted_run(path, backend="serial"):
    """The fixture's run: three rounds, two deaths, one respawn."""
    return ParallelSimulation(
        factory, fault_plan=PLAN, max_rounds=3, checkpoint_path=path,
        backend=backend, **KW,
    ).run()


def result_fields(result):
    return {
        "merged_digests": result.merged_digests,
        "rounds": result.rounds,
        "slave_events": result.slave_events,
        "total_accepted": result.total_accepted,
        "restarts": result.restarts,
        "dead_slaves": result.dead_slaves,
        "failure_causes": {
            str(slave): cause
            for slave, cause in result.failure_causes.items()
        },
        "degraded": result.degraded,
        "converged": result.converged,
    }


# -- the pinned bytes ---------------------------------------------------------


class TestPinnedFormat:
    def test_the_same_run_writes_the_same_bytes(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        interrupted_run(path)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_write_of_read_is_the_file(self, tmp_path):
        path = write_checkpoint(tmp_path / "ck.jsonl", read_checkpoint(FIXTURE))
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_fixture_leaves_no_field_trivial(self):
        state = read_checkpoint(FIXTURE)
        slave = state.slaves[1]  # respawned once, then left dead
        assert slave.generation == slave.restarts == 1
        assert slave.prior_events and slave.prior_accepted
        assert slave.owed and state.dead == {1: "injected fault: kill"}
        assert len(state.lineage) == 5 and state.total_restarts == 1

    def test_resume_lands_on_the_recorded_result(self):
        resumed = ParallelSimulation(factory, **KW).run(resume_from=FIXTURE)
        assert resumed.resumed
        assert result_fields(resumed) == json.loads(EXPECTED.read_text())


# -- the decoder's refusals ---------------------------------------------------


def fixture_records():
    return [json.loads(line) for line in FIXTURE.read_text().splitlines()]


def write_records(path, records):
    """``records`` as a checkpoint file whose end record counts them."""
    records[-1] = {"record": "end", "records": len(records)}
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return path


def record_of(records, kind):
    return next(record for record in records if record["record"] == kind)


def drop(kind, key):
    return lambda records: record_of(records, kind).pop(key)


def put(kind, key, value):
    return lambda records: record_of(records, kind).__setitem__(key, value)


def put_merged(key, value):
    return lambda records: record_of(records, "metric")["merged"].__setitem__(
        key, value
    )


def cut(kind):
    return lambda records: records.remove(record_of(records, kind))


#: Keys a slave or meta record may leave out (they take a default).
LENIENT = ("owed", "events_processed", "total_accepted", "restarts",
           "prior_events", "prior_accepted", "master_events", "total_restarts")
SHORT_COUNTS = base64.b64encode(bytes(8 * 999)).decode("ascii")

#: case -> (what to do to the fixture's records, what the refusal says).
MALFORMED = {
    # A raw KeyError at the parent commit:
    "slave without seed": (
        drop("slave", "seed"), ":3: slave record.seed: required key missing"),
    "meta without chunk_size": (
        drop("meta", "chunk_size"),
        ":1: meta record.chunk_size: required key missing"),
    "metric without merged": (
        drop("metric", "merged"),
        ":2: metric record.merged: required key missing"),
    "dead without cause": (
        drop("dead", "cause"), ":6: dead record.cause: required key missing"),
    # Accepted at the parent commit:
    "counts not base64": (
        put_merged("counts", "!!!"), "metric record.merged: undecodable"),
    "chunks a string": (
        put("slave", "chunks", "abc"),
        ":3: slave record.chunks: expected a list, got 'abc'"),
    "one-element lineage entry": (
        put("lineage", "seeds", [[7]]),
        ":7: lineage record.seeds[0]: expected a list of 3, got [7]"),
    # The rest of the shape:
    "counts shorter than bins": (
        put_merged("counts", SHORT_COUNTS),
        "metric record.merged: expected 1000 bin counts, got 999"),
    "fractional chunk quota": (
        put("slave", "chunks", [400, 1.5]),
        ":3: slave record.chunks[1]: expected an integer, got 1.5"),
    "unknown key": (
        put("slave", "observed", 3),
        ":3: slave record.observed: unknown key; known: chunks, "),
    "bool for an int": (
        put("meta", "round", True),
        ":1: meta record.round: expected an integer, got True"),
    "NaN moment": (
        put_merged("sum", float("nan")),
        ":2: metric record.merged.sum: expected a number, got nan"),
    "extremum neither number nor inf": (
        put_merged("max_seen", "big"), "merged: undecodable"),
    "bin masses off count": (
        put_merged("count", 1), "merged: count invariant violated"),
    "merged on another scheme": (
        put_merged("scheme", [0.0, 1.0, 1000]), "merged: scheme mismatch"),
    "bin scheme upside down": (
        put("metric", "scheme", [2.0, 1.0, 1000]),
        "metric record: high (1.0) must exceed low (2.0)"),
    "targets missing a key": (
        lambda records: record_of(records, "metric")["targets"].pop("confidence"),
        ":2: metric record.targets.confidence: required key missing"),
    # Across records:
    "slave recorded twice": (
        lambda records: records.insert(3, dict(records[2])),
        "slave record: recorded twice"),
    "slave missing": (
        cut("slave"), "one slave record for each of 3 slaves"),
    "a fleet larger than memory": (
        put("meta", "n_slaves", 10**15),
        "one slave record for each of 1000000000000000 slaves"),
    "dead slave outside the fleet": (
        put("dead", "slave_id", 9), "dead record for an unknown slave"),
    "no lineage": (
        cut("lineage"), "no lineage record"),
    "unknown record kind": (
        put("dead", "record", "zombie"), "zombie record: unknown record type"),
}


class TestRefusals:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_record_is_a_checkpoint_error(self, tmp_path, case):
        mutate, message = MALFORMED[case]
        records = fixture_records()
        mutate(records)
        path = write_records(tmp_path / "ck.jsonl", records)
        with pytest.raises(CheckpointError) as refusal:
            read_checkpoint(path)
        assert message in str(refusal.value)
        assert str(path) in str(refusal.value)

    def test_absent_optional_keys_take_their_defaults(self, tmp_path):
        records = fixture_records()
        for record in (records[0], records[3]):  # meta, slave 1
            for key in LENIENT:
                record.pop(key, None)
        state = read_checkpoint(write_records(tmp_path / "ck.jsonl", records))
        assert state.slaves[1].owed == state.slaves[1].events_processed == 0
        assert state.master_events == state.total_restarts == 0

    def test_record_order_does_not_matter(self, tmp_path):
        records = fixture_records()
        records[1:-1] = reversed(records[1:-1])
        path = write_records(tmp_path / "ck.jsonl", records)
        assert read_checkpoint(path) == read_checkpoint(FIXTURE)

    def test_integer_too_long_to_parse(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text(FIXTURE.read_text().replace(
            '"round": 3', '"round": ' + "9" * 5000
        ))
        with pytest.raises(CheckpointError, match="invalid JSON"):
            read_checkpoint(path)


# -- fuzz ---------------------------------------------------------------------

#: One value of every JSON type (a number stands for int and float:
#: either fits a float slot).
JUNK = [None, True, 7, "junk", [], ["x"], {}, {"k": 1}]


def json_kind(value):
    if isinstance(value, bool) or value is None:
        return type(value)
    return float if isinstance(value, (int, float)) else type(value)


def paths(node, prefix=()):
    """The path to every value nested in ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def parent_of(records, path):
    node = records
    for key in path[:-1]:
        node = node[key]
    return node


def defaulted(state, record, key):
    """``state`` with ``key`` of one slave (or of the meta) at its default:
    what a file that leaves an optional key out legitimately reads as."""
    meta = record["record"] == "meta"
    setattr(state if meta else state.slaves[record["slave_id"]], key, 0)


class Mutation:
    """One damaged copy of the fixture.

    ``reading`` edits the fixture's state into what ``text`` may decode
    to *instead of* being refused; for nearly every mutation it does
    nothing.  The repr is ``what`` alone, so a falsifying example does
    not print twelve kilobytes of base64.
    """

    def __init__(self, what, text, reading):
        self.what, self.text, self.reading = what, text, reading

    def __repr__(self):
        return f"Mutation({self.what})"


@st.composite
def mutations(draw):
    records = fixture_records()
    everywhere = list(paths(records))
    what = draw(st.sampled_from(
        ["drop key", "swap type", "truncate", "duplicate", "reorder", "base64"]
    ))
    reading = lambda state: None
    if what == "drop key":
        path = draw(st.sampled_from(
            [path for path in everywhere if isinstance(path[-1], str)]
        ))
        holder = parent_of(records, path)
        del holder[path[-1]]
        if len(path) == 2 and path[-1] in LENIENT:
            reading = lambda state: defaulted(state, holder, path[-1])
        what = f"drop {path}"
    elif what == "swap type":
        path = draw(st.sampled_from(everywhere))
        old = parent_of(records, path)[path[-1]]
        new = draw(st.sampled_from(
            [junk for junk in JUNK if json_kind(junk) != json_kind(old)]
        ))
        parent_of(records, path)[path[-1]] = new
        if path[-1] == "mean_accuracy" and new is None:
            # null is a legal mean accuracy: no target on the mean.
            reading = lambda state: state.targets["response_time"].update(
                mean_accuracy=None
            )
        what = f"set {path} to {new!r}"
    elif what == "duplicate":
        index = draw(st.integers(0, len(records) - 1))
        records.insert(index, json.loads(json.dumps(records[index])))
        recount = draw(st.booleans())
        if recount:
            records[-1]["records"] = len(records)
        what = f"duplicate record {index}, end record recounted: {recount}"
    elif what == "reorder":
        i, j = draw(st.tuples(*[st.integers(0, len(records) - 1)] * 2))
        records[i], records[j] = records[j], records[i]
        what = f"swap records {i} and {j}"
    elif what == "base64":
        counts = records[1]["merged"]["counts"]
        at = draw(st.integers(0, len(counts) - 1))
        char = draw(st.sampled_from("A/+=!\n \u00e9"))
        records[1]["merged"]["counts"] = counts[:at] + char + counts[at + 1:]
        what = f"base64 character {at} becomes {char!r}"
    text = "".join(json.dumps(record) + "\n" for record in records)
    if what == "truncate":
        size = draw(st.integers(0, len(text) - 1))
        text, what = text[:size], f"truncate to {size} characters"
    return Mutation(what, text, reading)


class TestFuzz:
    # The per-example deadline is the time box: a decoder that stalls
    # on some input fails here instead of hanging the suite.
    @settings(max_examples=300, deadline=2000, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutation=mutations())
    def test_mutated_fixture_is_refused_or_unchanged(self, tmp_path, mutation):
        path = tmp_path / "ck.jsonl"
        path.write_text(mutation.text)
        try:
            state = read_checkpoint(path)
        except CheckpointError:
            return
        expected = read_checkpoint(FIXTURE)
        mutation.reading(expected)
        assert state == expected


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    interrupted_run(FIXTURE)
    resumed = ParallelSimulation(factory, **KW).run(resume_from=FIXTURE)
    EXPECTED.write_text(json.dumps(result_fields(resumed), indent=2) + "\n")
