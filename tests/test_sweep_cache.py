"""Property tests for sweep digests and the content-addressed cache."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as repro_main
from repro.sweep import (
    CACHE_FORMAT,
    CacheError,
    SweepCache,
    SweepRunner,
    SweepSpec,
    canonical_json,
    content_digest,
)


def task_spec(**overrides):
    defaults = dict(
        name="cache-props",
        kind="task",
        seed=3,
        factory="tests.sweep_factories:moment_task",
        factory_kwargs={"scale": 2.0},
        axes={"x": [1, 2]},
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def point_digests(spec):
    return [spec.point_digest(point) for point in spec.points()]


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestDigestProperties:
    @given(st.dictionaries(st.text(min_size=1, max_size=8), json_values,
                           max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_digest_invariant_under_key_ordering(self, document):
        reversed_doc = dict(reversed(list(document.items())))
        assert content_digest(document) == content_digest(reversed_doc)
        assert canonical_json(document) == canonical_json(reversed_doc)

    @given(json_values)
    @settings(max_examples=50, deadline=None)
    def test_digest_survives_json_round_trip(self, value):
        assert content_digest(value) == content_digest(
            json.loads(canonical_json(value))
        )

    def test_axes_key_order_never_changes_points(self):
        spec_a = task_spec(axes={"x": [1, 2], "y": [3]})
        spec_b = task_spec(axes={"y": [3], "x": [1, 2]})
        assert point_digests(spec_a) == point_digests(spec_b)
        assert spec_a.digest() == spec_b.digest()

    def test_toml_json_spec_round_trip_same_digests(self, tmp_path):
        toml_path = tmp_path / "spec.toml"
        toml_path.write_text(
            '[sweep]\n'
            'name = "cache-props"\n'
            'kind = "task"\n'
            'seed = 3\n'
            'factory = "tests.sweep_factories:moment_task"\n'
            '[factory_kwargs]\n'
            'scale = 2.0\n'
            '[axes]\n'
            'x = [1, 2]\n'
        )
        json_path = tmp_path / "spec.json"
        json_path.write_text(json.dumps(task_spec().to_dict()))
        from_toml = SweepSpec.load(toml_path)
        from_json = SweepSpec.load(json_path)
        assert point_digests(from_toml) == point_digests(from_json)
        assert from_toml.digest() == task_spec().digest()

    @pytest.mark.parametrize(
        "change",
        [
            dict(seed=4),
            dict(kind="factory"),
            dict(factory="tests.sweep_factories:napping_task"),
            dict(factory_kwargs={"scale": 2.5}),
            dict(axes={"x": [5, 6]}),
            dict(max_events=1000),
        ],
    )
    def test_any_semantic_change_moves_point_digests(self, change):
        baseline = point_digests(task_spec())
        changed = point_digests(task_spec(**change))
        assert all(a != b for a, b in zip(baseline, changed))

    def test_renaming_the_sweep_does_not_move_digests(self):
        assert point_digests(task_spec()) == point_digests(
            task_spec(name="renamed")
        )

    def test_editing_one_axis_value_moves_only_that_point(self):
        baseline = point_digests(task_spec(axes={"x": [1, 2, 3]}))
        edited = point_digests(task_spec(axes={"x": [1, 99, 3]}))
        assert baseline[0] == edited[0]
        assert baseline[1] != edited[1]
        assert baseline[2] == edited[2]


class TestSweepCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = SweepCache(tmp_path)
        digest = content_digest({"a": 1})
        assert cache.get(digest) is None
        cache.put(digest, {"value": 7})
        assert cache.get(digest) == {"value": 7}
        assert digest in cache and len(cache) == 1
        assert (cache.hits, cache.misses, cache.corrupt) == (1, 1, 0)

    def test_unusable_root_raises(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        with pytest.raises(CacheError):
            SweepCache(blocker / "sub")

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda text: text[: len(text) // 2],          # truncated
            lambda text: "not json at all",               # unparsable
            lambda text: text.replace('"payload"', '"p"'),  # missing keys
            lambda text: text.replace(
                f'"format": {CACHE_FORMAT}', '"format": 999'
            ),                                             # future format
        ],
    )
    def test_corrupt_entries_are_misses_never_served(self, tmp_path, mangle):
        cache = SweepCache(tmp_path)
        digest = content_digest({"point": 1})
        path = cache.put(digest, {"value": 1})
        path.write_text(mangle(path.read_text()))
        assert cache.get(digest) is None
        assert cache.corrupt == 1

    def test_payload_tamper_detected_by_checksum(self, tmp_path):
        cache = SweepCache(tmp_path)
        digest = content_digest({"point": 2})
        path = cache.put(digest, {"value": 1})
        entry = json.loads(path.read_text())
        entry["payload"]["value"] = 2  # bit-flip the result
        path.write_text(json.dumps(entry))
        assert cache.get(digest) is None
        assert cache.corrupt == 1

    def test_entry_checksum_is_pinned(self, tmp_path):
        # An entry as written before the checksum became content_digest:
        # its bytes must still verify, or every existing cache goes cold.
        payload = {"task": {"seed": 7, "value": 4.0}, "point_digest": "abc",
                   "converged": True, "metrics": None}
        cache = SweepCache(tmp_path)
        digest = content_digest({"point": 4})
        cache.path(digest).parent.mkdir(parents=True)
        cache.path(digest).write_text(json.dumps({
            "format": CACHE_FORMAT, "digest": digest,
            "checksum": "cd34e6118d7901c195688fa9ed9a02b7", "payload": payload,
        }))
        assert cache.get(digest) == payload and cache.hits == 1

    def test_evict(self, tmp_path):
        cache = SweepCache(tmp_path)
        digest = content_digest({"point": 3})
        cache.put(digest, {"value": 1})
        assert cache.evict(digest) is True
        assert cache.evict(digest) is False
        assert digest not in cache


class TestRunnerCacheBehavior:
    def test_corrupt_entry_recomputed_and_repaired(self, tmp_path):
        spec = task_spec()
        cache = SweepCache(tmp_path)
        first = SweepRunner(spec, backend="serial", cache=cache).run()
        # Corrupt one entry on disk; the rerun must recompute just it.
        victim = first.points[0]
        cache.path(victim.digest).write_text("garbage")
        second = SweepRunner(spec, backend="serial", cache=cache).run()
        assert second.cache_hits == 1 and second.computed == 1
        assert second.corrupt_entries == 1
        assert second.points[0].payload["task"] == victim.payload["task"]
        # The recompute repaired the entry for the next run.
        third = SweepRunner(spec, backend="serial", cache=cache).run()
        assert third.cache_hits == 2 and third.computed == 0

    def test_force_recomputes_despite_warm_cache(self, tmp_path):
        spec = task_spec()
        cache = SweepCache(tmp_path)
        SweepRunner(spec, backend="serial", cache=cache).run()
        forced = SweepRunner(
            spec, backend="serial", cache=cache, force=True
        ).run()
        assert forced.forced
        assert forced.cache_hits == 0 and forced.computed == 2

    def test_editing_one_point_recomputes_only_that_point(self, tmp_path):
        cache = SweepCache(tmp_path)
        SweepRunner(
            task_spec(axes={"x": [1, 2, 3]}), backend="serial", cache=cache
        ).run()
        edited = SweepRunner(
            task_spec(axes={"x": [1, 99, 3]}), backend="serial", cache=cache
        ).run()
        assert edited.cache_hits == 2 and edited.computed == 1

    @pytest.mark.parametrize("name", ["mm1_loadcurve", "cloning_tail"])
    def test_cli_rerun_is_all_cache_hits(self, name, tmp_path, monkeypatch):
        # A shipped spec twice through `repro sweep` on one --cache.
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        runs = []
        for run in ("cold", "warm"):
            out = tmp_path / f"{run}.json"
            assert repro_main([
                "sweep", f"examples/sweeps/{name}.toml", "--jobs", "2",
                "--cache", str(tmp_path / "cache"), "--out", str(out),
            ]) == 0
            runs.append(json.loads(out.read_text()))
        cold, warm = runs
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == len(warm["points"]) == 4
        assert all(point["cached"] for point in warm["points"])
