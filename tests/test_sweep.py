"""Tests for the sweep engine: spec, runner backends, and the pool."""

import json
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings

from tests import sweep_factories
from tests.test_config import mutated_documents
from repro.cli import main as repro_main
from repro.faults import FaultPlan, RespawnPolicy
from repro.faults.recovery import derive_seed
from repro.observability import Tracer
from repro.parallel.pool import PoolError, PoolJobError, WorkerPool
from repro.sweep import (
    SweepError,
    SweepRunner,
    SweepSpec,
    apply_params,
    callable_ref,
    run_point,
)


def task_spec(**overrides):
    defaults = dict(
        name="tasks",
        kind="task",
        seed=9,
        factory="tests.sweep_factories:moment_task",
        factory_kwargs={"scale": 2.0},
        axes={"x": [1, 2, 3]},
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def mm1_spec(**overrides):
    defaults = dict(
        name="mm1-grid",
        kind="factory",
        seed=5,
        factory=sweep_factories.mm1_point,
        axes={"rho": [0.3, 0.6]},
        max_events=500_000,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


class TestSweepSpec:
    def test_points_enumerate_cartesian_product_in_sorted_key_order(self):
        spec = task_spec(axes={"b": [1, 2], "a": ["x", "y"]})
        names = [point.name for point in spec.points()]
        # Axis 'a' is outermost because axes walk in sorted-key order.
        assert names == ["a='x',b=1", "a='x',b=2", "a='y',b=1", "a='y',b=2"]
        assert len(spec) == 4

    def test_seeds_follow_derive_seed_lineage(self):
        spec = task_spec()
        for point in spec.points():
            assert point.seed == derive_seed(spec.seed, point.index, 0)
        assert len({point.seed for point in spec.points()}) == len(spec)

    def test_grid_keeps_declared_order(self):
        spec = task_spec(axes={}, grid=({"x": 5}, {"x": 1}))
        assert [point.params["x"] for point in spec.points()] == [5, 1]

    def test_callable_factory_resolves_to_ref(self):
        spec = mm1_spec()
        assert spec.factory_ref == "tests.sweep_factories:mm1_point"
        assert spec.resolve_factory() is sweep_factories.mm1_point

    def test_local_callable_rejected(self):
        def local_factory(seed):  # pragma: no cover - never called
            return None

        with pytest.raises(SweepError, match="module-level"):
            callable_ref(local_factory)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(kind="bogus"), "unknown sweep kind"),
            (dict(name=""), "non-empty name"),
            (dict(axes={}), "non-empty 'axes' or 'grid'"),
            (dict(grid=({"x": 1},)), "not both"),
            (dict(axes={"x": []}), "non-empty list"),
            (dict(factory=None), "need a 'factory'"),
        ],
    )
    def test_invalid_specs_rejected(self, overrides, match):
        with pytest.raises(SweepError, match=match):
            task_spec(**overrides)

    def test_config_kind_takes_base_not_factory(self):
        with pytest.raises(SweepError, match="'base', not 'factory'"):
            SweepSpec(
                name="x", kind="config",
                factory="tests.sweep_factories:moment_task", axes={"a": [1]},
            )
        with pytest.raises(SweepError, match="need a 'base'"):
            SweepSpec(name="x", kind="config", axes={"a": [1]})

    def test_apply_params_dotted_paths(self):
        base = {"workload": {"name": "web", "load": 0.5}, "seed": 1}
        config = apply_params(base, {"workload.load": 0.9, "extra.deep": 2})
        assert config["workload"]["load"] == 0.9
        assert config["extra"]["deep"] == 2
        assert base["workload"]["load"] == 0.5  # deep-copied
        with pytest.raises(SweepError, match="non-object"):
            apply_params({"seed": 1}, {"seed.nested": 2})

    def test_round_trip_preserves_digest(self, tmp_path):
        spec = task_spec()
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone.digest() == spec.digest()
        path = tmp_path / "spec.json"
        import json

        path.write_text(json.dumps(spec.to_dict()))
        assert SweepSpec.load(path).digest() == spec.digest()

    def test_unknown_sections_rejected(self):
        data = task_spec().to_dict()
        data["extra"] = {}
        with pytest.raises(SweepError, match="^extra: unknown key"):
            SweepSpec.from_dict(data)
        data.pop("extra")
        data["sweep"]["bogus"] = 1
        with pytest.raises(SweepError, match=r"^sweep\.bogus: unknown key"):
            SweepSpec.from_dict(data)


# -- the spec document as input from outside ----------------------------------

SPEC_DOC = task_spec().to_dict()


def spec_doc(head=(), **sections):
    """SPEC_DOC with ``head`` keys and ``sections`` overlaid; a None
    value drops the key."""
    document = {**SPEC_DOC, "sweep": {**SPEC_DOC["sweep"], **dict(head)},
                **sections}
    if isinstance(document["sweep"], dict):
        document["sweep"] = {
            key: value for key, value in document["sweep"].items()
            if value is not None
        }
    return {key: value for key, value in document.items() if value is not None}


#: (spec document, the key path its refusal must start with).
MALFORMED = [
    (spec_doc({"seed": 7.9}), "sweep.seed"),  # was truncated to 7
    (spec_doc({"seed": True}), "sweep.seed"),  # was taken as 1
    (spec_doc({"max_events": "1e6"}), "sweep.max_events"),
    (spec_doc({"name": 5}), "sweep.name"),
    (spec_doc({"name": None}), "sweep.name"),
    (spec_doc({"bogus": 1}), "sweep.bogus"),
    (spec_doc(sweep="abc"), "sweep"),  # was "unknown [sweep] key(s): ['a', …"
    (spec_doc(sweep=None), "sweep"),
    (spec_doc(extra={}), "extra"),
    (spec_doc(axes=None, grid={"x": 1}), "grid"),  # [grid], not [[grid]]
    (spec_doc(axes=None, grid=[{"x": 1}, 3]), "grid[1]"),
    (spec_doc(axes=[1]), "axes"),  # was a raw AttributeError
    (spec_doc(axes={"x": 3}), "axes.x"),
    (spec_doc(factory_kwargs=[]), "factory_kwargs"),
]


class TestSpecDocument:
    def test_reference_document_loads(self):
        assert SweepSpec.from_dict(spec_doc()).digest() == task_spec().digest()

    @pytest.mark.parametrize("document, where", MALFORMED)
    def test_malformed_spec_is_a_sweep_error(self, document, where):
        with pytest.raises(SweepError) as refusal:
            SweepSpec.from_dict(document)
        assert str(refusal.value).startswith(f"{where}: ")

    @pytest.mark.parametrize("document, where", MALFORMED)
    def test_malformed_spec_through_the_cli(
        self, document, where, tmp_path, capsys
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        assert repro_main(["sweep", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sweep: cannot load {path}: {where}: ")
        assert captured.err.count("\n") == 1

    def test_undecodable_spec_through_the_cli(self, tmp_path, capsys):
        path = tmp_path / "spec.toml"
        path.write_bytes(b"\xff\xfe[sweep]")
        assert repro_main(["sweep", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1


SHIPPED_SPECS = [
    tomllib.loads(path.read_text()) for path in sorted(
        (Path(__file__).parents[1] / "examples" / "sweeps").glob("*.toml")
    )
]
SPEC_KEYS = ["sweep", "grid", "axes", "name", "seed", "kind", "x"]


class TestSpecFuzz:
    # The moves of test_config.TestFuzz over the shipped specs; the
    # per-example deadline is the time box.
    @settings(max_examples=300, deadline=2000, derandomize=True)
    @given(document=mutated_documents(SHIPPED_SPECS, SPEC_KEYS))
    def test_mutated_spec_is_refused_or_enumerates(self, document):
        try:
            spec = SweepSpec.from_dict(document)
            assert len(spec.points()) == len(spec)
            spec.digest()
        except SweepError:
            return


class TestRunPoint:
    def test_task_payload_carries_digest_and_params(self):
        spec = task_spec()
        point = spec.points()[1]
        payload = run_point(point.job_payload(spec))
        assert payload["task"] == {"seed": point.seed, "value": 4.0}
        assert payload["point_digest"] == spec.point_digest(point)

    def test_experiment_payload_has_histogram_digests(self):
        spec = mm1_spec()
        point = spec.points()[0]
        payload = run_point(point.job_payload(spec))
        assert payload["converged"]
        assert "response_time" in payload["metrics"]
        digest = payload["histogram_digests"]["response_time"]
        assert len(digest) == 32

    def test_task_must_return_dict(self):
        spec = task_spec(factory="tests.sweep_factories:scalar_task")
        job = spec.points()[0].job_payload(spec)
        with pytest.raises(SweepError, match="must return a dict"):
            run_point(job)


class TestSweepRunner:
    def test_serial_backend_runs_all_points_in_order(self):
        seen = []
        result = SweepRunner(
            task_spec(), backend="serial", on_point=seen.append
        ).run()
        assert [point.task["value"] for point in result.points] == [
            2.0, 4.0, 6.0,
        ]
        assert [point.index for point in seen] == [0, 1, 2]
        assert result.computed == 3 and result.cache_hits == 0
        assert result.converged and not result.degraded

    def test_result_lookup_by_name(self):
        result = SweepRunner(task_spec(), backend="serial").run()
        assert result["x=2"].task["value"] == 4.0
        with pytest.raises(KeyError):
            result["x=99"]

    def test_unknown_backend_and_bad_jobs_rejected(self):
        with pytest.raises(SweepError, match="unknown backend"):
            SweepRunner(task_spec(), backend="threads")
        with pytest.raises(SweepError, match="jobs must be"):
            SweepRunner(task_spec(), jobs=0)

    def test_pool_backend_matches_serial(self):
        spec = task_spec()
        serial = SweepRunner(spec, backend="serial").run()
        pooled = SweepRunner(spec, backend="pool", jobs=2).run()
        assert [point.payload["task"] for point in pooled.points] == [
            point.payload["task"] for point in serial.points
        ]
        assert pooled.pool_stats.jobs_completed == 3

    def test_deterministic_job_error_surfaces_immediately(self):
        spec = task_spec(factory="tests.sweep_factories:failing_task")
        with pytest.raises(PoolJobError, match="boom"):
            SweepRunner(spec, backend="pool", jobs=2).run()

    def test_job_error_on_serial_is_a_pool_job_error_naming_the_job(self):
        spec = task_spec(factory="tests.sweep_factories:failing_task")
        first = spec.point_digest(spec.points()[0])
        with pytest.raises(PoolJobError, match="boom") as caught:
            SweepRunner(spec, backend="serial").run()
        assert caught.value.job_id == first
        assert repr(first) in str(caught.value)

    def test_external_pool_is_reused_and_left_running(self):
        with WorkerPool(run_point, n_workers=2) as pool:
            first = SweepRunner(task_spec(), pool=pool).run()
            second = SweepRunner(task_spec(seed=10), pool=pool).run()
            assert first.converged and second.converged
            # Same fleet served both sweeps: completions accumulate.
            assert pool.stats.jobs_completed == 6
            assert pool.alive_workers == [0, 1]

    def test_tracer_records_points_and_counters(self):
        tracer = Tracer.to_memory()
        SweepRunner(task_spec(), backend="serial", tracer=tracer).run()
        events = [r for r in tracer.lines() if r["component"] == "sweep"]
        names = [r["name"] for r in events]
        assert names.count("point") == 3
        assert "cache_hits" in names and "points_computed" in names


class TestWorkerPoolFaults:
    def test_kill_costs_one_point_not_the_run(self):
        spec = task_spec(axes={"x": [1, 2, 3, 4]})
        plan = FaultPlan.single("kill", slave_id=0, round=1, phase="pre_run")
        result = SweepRunner(
            spec, backend="pool", jobs=2, fault_plan=plan,
            respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
        ).run()
        assert result.converged
        assert len(result.points) == 4
        stats = result.pool_stats
        assert stats.deaths == 1 and stats.restarts == 1
        assert stats.jobs_requeued == 1
        assert not stats.degraded

    def test_death_without_respawn_degrades_but_finishes(self):
        # Napping points keep both workers busy long enough that worker
        # 1 is guaranteed a second round, where it dies before running.
        spec = task_spec(
            factory="tests.sweep_factories:napping_task",
            factory_kwargs={"delay": 0.1},
            axes={"x": [1, 2, 3, 4]},
        )
        plan = FaultPlan.single("kill", slave_id=1, round=2, phase="pre_run")
        result = SweepRunner(
            spec, backend="pool", jobs=2, fault_plan=plan, job_timeout=30.0,
        ).run()
        assert result.converged and result.degraded
        assert len(result.points) == 4
        assert result.pool_stats.deaths == 1
        assert result.pool_stats.jobs_requeued == 1
        assert result.pool_stats.failure_causes.keys() == {1}

    def test_corrupt_payload_is_recomputed_never_served(self):
        spec = task_spec(axes={"x": [1, 2, 3]})
        plan = FaultPlan.single("corrupt_payload", slave_id=0, round=1)
        result = SweepRunner(
            spec, backend="pool", jobs=2, fault_plan=plan,
            respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
        ).run()
        clean = SweepRunner(spec, backend="serial").run()
        assert [p.payload["task"] for p in result.points] == [
            p.payload["task"] for p in clean.points
        ]
        assert result.pool_stats.deaths == 1

    def test_hang_hits_deadline_and_requeues(self):
        spec = task_spec(axes={"x": [1, 2]})
        plan = FaultPlan.single("hang", slave_id=0, round=1, delay=5.0)
        result = SweepRunner(
            spec, backend="pool", jobs=2, fault_plan=plan, job_timeout=0.4,
            respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
        ).run()
        assert result.converged
        assert result.pool_stats.jobs_requeued == 1

    @pytest.mark.parametrize(
        "kind, where, job_timeout, causes",
        [
            ("kill", {"phase": "pre_run"}, 30.0, {"pipe closed"}),
            ("kill", {"phase": "pre_report"}, 30.0, {"pipe closed"}),
            # The result is out before the exit; whether the death then
            # shows as a failed send (nothing to requeue) or as an EOF
            # is the OS's choice.
            ("kill", {"phase": "post_report"}, 30.0,
             {"pipe closed", "send failed: [Errno 32] Broken pipe"}),
            ("drop_report", {}, 0.5, {"heartbeat timeout"}),
            ("corrupt_payload", {}, 30.0,
             {"corrupt payload: point digest mismatch"}),
            ("hang", {"delay": 1.5}, 0.5, {"heartbeat timeout"}),
        ],
    )
    def test_fault_matrix_costs_one_worker_and_no_result(
        self, kind, where, job_timeout, causes
    ):
        """Every fault kind, executed worker-side by ``FaultInjector``:
        one attributed death, one respawn, at most one recomputed point,
        and the clean run's digests."""
        spec = task_spec(
            factory="tests.sweep_factories:napping_task",
            factory_kwargs={"delay": 0.05},
            axes={"x": [1, 2, 3, 4, 5, 6]},
        )
        tracer = Tracer.to_memory()
        result = SweepRunner(
            spec, backend="pool", jobs=2, job_timeout=job_timeout,
            fault_plan=FaultPlan.single(kind, slave_id=0, round=1, **where),
            respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
            tracer=tracer,
        ).run()
        assert result.digests() == SweepRunner(
            spec, backend="serial"
        ).run().digests()
        stats = result.pool_stats
        assert (stats.jobs_completed, stats.deaths, stats.restarts) == (
            6, 1, 1
        )
        assert stats.jobs_requeued in ((0, 1) if len(causes) > 1 else (1,))
        assert stats.failure_causes == {}
        (dead,) = [
            record["fields"] for record in tracer.lines()
            if record["component"] == "pool" and record["name"] == "dead"
        ]
        assert dead["worker"] == 0 and dead["cause"] in causes

    def test_all_workers_dead_raises_pool_error(self):
        plan = FaultPlan(specs=tuple(
            FaultPlan.single(
                "kill", slave_id=worker, round=1, phase="pre_run"
            ).specs[0]
            for worker in range(2)
        ))
        with pytest.raises(PoolError, match="every pool worker has died"):
            SweepRunner(
                task_spec(axes={"x": [1, 2, 3, 4]}),
                backend="pool", jobs=2, fault_plan=plan,
            ).run()


class TestSweepSupervision:
    """Run-level supervision on the pool backends: deadline and floor."""

    def test_deadline_always_aborts_the_sweep(self):
        from repro.faults import SupervisionError, SupervisionPolicy
        from repro.parallel.protocol import CAUSE_DEADLINE_EXCEEDED

        spec = task_spec(
            factory="tests.sweep_factories:napping_task",
            factory_kwargs={"delay": 0.3},
            axes={"x": [1, 2, 3, 4]},
        )
        runner = SweepRunner(
            spec,
            backend="pool",
            jobs=1,
            supervision=SupervisionPolicy(
                deadline=0.05, on_exhausted="continue"
            ),
        )
        # A partial sweep is not a meaningful result: even under
        # "continue" the deadline aborts with a typed cause.
        with pytest.raises(SupervisionError) as info:
            runner.run()
        assert info.value.cause == CAUSE_DEADLINE_EXCEEDED

    def test_fleet_floor_aborts_pool_map(self):
        from repro.faults import SupervisionError, SupervisionPolicy
        from repro.parallel.protocol import CAUSE_FLEET_EXHAUSTED

        # Worker 0 is killed by the chaos plan and never replaced (no
        # respawn policy): the fleet drops below min_workers=2 and the
        # map aborts with the typed cause instead of limping on.
        spec = task_spec(
            factory="tests.sweep_factories:napping_task",
            factory_kwargs={"delay": 0.02},
            axes={"x": [1, 2, 3, 4, 5, 6]},
        )
        runner = SweepRunner(
            spec,
            backend="pool",
            jobs=2,
            fault_plan=FaultPlan.single(
                "kill", slave_id=0, round=1, phase="pre_run"
            ),
            supervision=SupervisionPolicy(min_workers=2),
        )
        with pytest.raises(SupervisionError) as info:
            runner.run()
        assert info.value.cause == CAUSE_FLEET_EXHAUSTED

    def test_fleet_floor_continue_finishes_degraded(self):
        from repro.faults import SupervisionPolicy

        spec = task_spec(
            factory="tests.sweep_factories:napping_task",
            factory_kwargs={"delay": 0.02},
            axes={"x": [1, 2, 3, 4]},
        )
        runner = SweepRunner(
            spec,
            backend="pool",
            jobs=2,
            fault_plan=FaultPlan.single(
                "kill", slave_id=0, round=1, phase="pre_run"
            ),
            supervision=SupervisionPolicy(
                min_workers=2, on_exhausted="continue"
            ),
        )
        result = runner.run()
        assert len(result.points) == 4
        assert result.degraded
        assert result.pool_stats.deaths == 1
