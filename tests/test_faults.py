"""Fault tolerance: injection, recovery, checkpoint/resume (docs/robustness.md).

Unit tests cover the plan/injector/recovery/checkpoint pieces in
isolation; the integration tests drive full parallel runs through
injected failures and assert the contracts the subsystem exists for —
cause-code attribution, recovery to ``degraded=False``, serial/process
chaos equivalence, and bit-for-bit checkpoint resume.
"""

import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.faults import (
    CheckpointError,
    CheckpointState,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RespawnPolicy,
    SeedLineage,
    SupervisionError,
    SupervisionPolicy,
    backoff_delay,
    derive_seed,
    read_checkpoint,
    write_checkpoint,
)
from repro.faults.checkpoint import SlaveCheckpoint
from repro.faults.injector import corrupt_payload
from repro.parallel import ParallelError, ParallelSimulation
from repro.parallel.master import _SlaveSession
from repro.parallel.memory import InMemoryTransport
from repro.parallel.pool import _PoolSession
from repro.parallel.protocol import scheme_payload, validate_report_payload
from repro.parallel.transport import (
    TransportCapacityError,
    _InlineTransport,
    _serve_session,
    disconnect_cause,
)
from tests.test_config import mutated_documents


def factory(seed, load=0.6, accuracy=0.05):
    """Module-level factory (picklable for the process backend)."""
    from repro import Experiment, Server
    from repro.workloads import web

    experiment = Experiment(seed=seed, warmup_samples=300,
                            calibration_samples=2000)
    server = Server(cores=1)
    experiment.add_source(web().at_load(load), target=server)
    experiment.track_response_time(
        server, mean_accuracy=accuracy, quantiles={0.95: 0.1}
    )
    return experiment


NO_BACKOFF = RespawnPolicy(backoff_base=0.0, jitter=0.0)


# -- plan ---------------------------------------------------------------------


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec(kind="meteor", slave_id=0, round=1)

    def test_round_is_one_based(self):
        with pytest.raises(FaultError, match="1-based"):
            FaultSpec(kind="kill", slave_id=0, round=0)

    def test_kill_phase_validated(self):
        with pytest.raises(FaultError, match="phase"):
            FaultSpec(kind="kill", slave_id=0, round=1, phase="noon")

    def test_dict_roundtrip(self):
        spec = FaultSpec(kind="kill", slave_id=2, round=3,
                         generation=1, phase="post_report")
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultError, match="^severity: unknown key"):
            FaultSpec.from_dict({"kind": "kill", "severity": 9})


class TestFaultPlan:
    def test_duplicate_address_rejected(self):
        spec = FaultSpec(kind="kill", slave_id=0, round=1)
        with pytest.raises(FaultError, match="duplicate"):
            FaultPlan(specs=(spec, spec))

    def test_for_slave_filters_by_generation(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", slave_id=1, round=1),
            FaultSpec(kind="kill", slave_id=1, round=2, generation=1),
            FaultSpec(kind="kill", slave_id=2, round=1),
        ))
        assert [s.round for s in plan.for_slave(1, 0)] == [1]
        assert [s.round for s in plan.for_slave(1, 1)] == [2]
        assert plan.for_slave(3) == ()

    def test_drop_report_conflicts_with_post_report_kill(self):
        # drop_report suppresses the send a post_report kill fires
        # after; the combination executes differently on the two
        # backends, so the plan is rejected up front.
        with pytest.raises(FaultError, match="contradictory"):
            FaultPlan(specs=(
                FaultSpec(kind="drop_report", slave_id=0, round=2),
                FaultSpec(kind="kill", slave_id=0, round=2,
                          phase="post_report"),
            ))

    def test_save_load_roundtrip(self, tmp_path):
        plan = FaultPlan.single("drop_report", slave_id=1, round=2)
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path).specs == plan.specs

    def test_load_inline_json(self):
        plan = FaultPlan.load(
            '{"faults": [{"kind": "hang", "slave_id": 0, "round": 1}]}'
        )
        assert plan.specs[0].kind == "hang"

    def test_load_rejects_garbage(self, tmp_path):
        with pytest.raises(FaultError, match="invalid fault-plan JSON"):
            FaultPlan.load("{not json")
        with pytest.raises(FaultError, match="invalid fault-plan JSON"):
            FaultPlan.load('{"faults": [], "seed": ' + "9" * 5000 + "}")
        path = tmp_path / "plan.json"
        path.write_bytes(b'{"faults": ["\xff"]}')
        with pytest.raises(FaultError, match="invalid fault-plan JSON"):
            FaultPlan.load(path)


#: Every ``--chaos`` plan CI (.github/workflows/ci.yml) and the docs
#: run, with the specs the reader gave before worker and frame faults
#: were one plan (``worker_id`` then named ``slave_id``).
SHIPPED_PLANS = [
    ({"faults": [{"kind": "kill", "slave_id": 0, "round": 1,
                  "phase": "pre_run"}]},
     [{"kind": "kill", "slave_id": 0, "round": 1, "generation": 0,
       "phase": "pre_run", "delay": 3600.0}]),
    ({"faults": [{"kind": "kill", "slave_id": 1, "round": 1}]},
     [{"kind": "kill", "slave_id": 1, "round": 1, "generation": 0,
       "phase": "pre_report", "delay": 3600.0}]),
    ({"faults": []}, []),
    ({"faults": [
        {"kind": "duplicate", "slave_id": 0, "round": 1, "direction": "in"},
        {"kind": "duplicate", "slave_id": 1, "round": 1, "direction": "out"},
        {"kind": "delay", "slave_id": 1, "round": 1, "direction": "in",
         "delay": 0.3},
    ]},
     [{"kind": "duplicate", "slave_id": 0, "round": 1, "generation": 0,
       "direction": "in", "delay": 0.5},
      {"kind": "duplicate", "slave_id": 1, "round": 1, "generation": 0,
       "direction": "out", "delay": 0.5},
      {"kind": "delay", "slave_id": 1, "round": 1, "generation": 0,
       "direction": "in", "delay": 0.3}]),
    ({"faults": [{"kind": "partition", "slave_id": 1, "round": 1,
                  "direction": "in"}]},
     [{"kind": "partition", "slave_id": 1, "round": 1, "generation": 0,
       "direction": "in", "delay": 0.5}]),
]

#: (plan document, the key path its refusal must start with).
MALFORMED = [
    ({"faults": [{"kind": "kill", "slave_id": True, "round": 1}]},
     "faults[0].slave_id"),
    ({"faults": [{"kind": "kill", "slave_id": 1, "round": 2.9}]},
     "faults[0].round"),
    ({"faults": [{"kind": "hang", "delay": "nan"}]}, "faults[0].delay"),
    ({"faults": [{"kind": "hang", "delay": "1e999"}]}, "faults[0].delay"),
    ({"faults": [{"kind": "hang", "delay": float("nan")}]},
     "faults[0].delay"),
    ({"faults": [{"kind": "delay", "delay": float("inf")}]},
     "faults[0].delay"),
    ({"faults": [{"kind": "delay", "delay": 0}]}, "faults[0].delay"),
    ({"faults": [], "severity": 9}, "severity"),
    ({"faults": [], "seed": "x"}, "seed"),
    ({"faults": [1]}, "faults[0]"),
    ({"faults": None}, "faults"),
    ({}, "faults"),
    ({"net_faults": []}, "net_faults"),
    ([], "document"),
    ({"faults": [{"slave_id": 0}]}, "faults[0].kind"),
    ({"faults": [{"kind": "meteor"}]}, "faults[0].kind"),
    ({"faults": [{"kind": "kill", "round": 0}]}, "faults[0].round"),
    ({"faults": [{"kind": "drop", "worker_id": 0}]}, "faults[0].worker_id"),
    # Each field belongs to its kinds.
    ({"faults": [{"kind": "kill", "direction": "in"}]},
     "faults[0].direction"),
    ({"faults": [{"kind": "drop", "phase": "pre_run"}]}, "faults[0].phase"),
    ({"faults": [{"kind": "corrupt", "direction": "out"}]},
     "faults[0].direction"),
    ({"faults": [{"kind": "drop"}, {"kind": "delay"}]}, "faults[1]"),
    ({"faults": [{"kind": "kill"}, {"kind": "kill", "phase": "pre_run"}]},
     "faults[1]"),
]


class TestPlanDocuments:
    @pytest.mark.parametrize("document, specs", SHIPPED_PLANS)
    def test_shipped_plans_load_unchanged(self, document, specs):
        plan = FaultPlan.from_dict(document)
        assert [spec.to_dict() for spec in plan] == specs
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    @pytest.mark.parametrize("document, where", MALFORMED)
    def test_malformed_plan_is_a_fault_error(self, document, where):
        with pytest.raises(FaultError) as refusal:
            FaultPlan.from_dict(document)
        assert str(refusal.value).startswith(f"{where}:")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_malformed_plan_through_the_cli(self, command, tmp_path, capsys):
        from repro.cli import main
        from tests.test_cli import write_config, write_task_spec

        target = (write_config(tmp_path) if command == "run"
                  else write_task_spec(tmp_path))
        path = tmp_path / "plan.json"
        parallel = ["--parallel", "2"] if command == "run" else []
        for document, where in MALFORMED:
            path.write_text(json.dumps(document))
            plans = [str(path)]
            if isinstance(document, dict):  # an object also comes inline
                plans.append(json.dumps(document))
            for plan in plans:
                argv = [command, str(target), *parallel, "--chaos", plan]
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith(
                    f"{command}: --chaos: {where}:"
                )
                assert captured.err.count("\n") == 1

    # A builder that stalls on some document fails on the deadline
    # instead of hanging the suite.
    @settings(max_examples=300, deadline=2000, derandomize=True)
    @given(document=mutated_documents(
        documents=[document for document, specs in SHIPPED_PLANS if specs],
        new_keys=["worker_id", "phase", "direction", "delay", "seed",
                  "faults", "net_faults", "x"],
    ))
    def test_mutated_plan_loads_or_is_refused(self, document):
        try:
            plan = FaultPlan.from_dict(document)
        except FaultError:
            return
        assert isinstance(plan, FaultPlan)
        assert FaultPlan.from_dict(plan.to_dict()) == plan


# -- injector -----------------------------------------------------------------


class TestFaultInjector:
    def _spec(self, **kwargs):
        base = dict(kind="kill", slave_id=0, round=2)
        return FaultSpec(**{**base, **kwargs})

    def test_process_kill_exits(self):
        injector = FaultInjector((self._spec(phase="pre_run"),))
        injector.on_chunk_start(1)
        with pytest.raises(SystemExit) as exit_info:
            injector.on_chunk_start(2)
        assert exit_info.value.code == 86

    def test_hang_sleeps(self):
        naps = []
        spec = self._spec(kind="hang", delay=12.5)
        FaultInjector((spec,), sleeper=naps.append).on_chunk_start(2)
        assert naps == [12.5]

    def test_drop_report_returns_none(self):
        injector = FaultInjector((self._spec(kind="drop_report"),))
        assert injector.filter_report(2, object()) is None

    def test_corrupt_payload_fails_validation(self):
        clean = {
            "scheme": (0.0, 1.0, 4),
            "counts": [1, 2, 3, 4],
            "underflow": 0,
            "overflow": 0,
            "count": 10,
            "sum": 5.0,
            "sum_sq": 3.0,
            "min_seen": 0.1,
            "max_seen": 0.9,
        }
        assert validate_report_payload(clean, (0.0, 1.0, 4)) is None
        mangled = corrupt_payload(clean)
        assert validate_report_payload(mangled, (0.0, 1.0, 4)) is not None


def _double(job):
    """A pool runner for the inline-endpoint tests."""
    return {"value": 2 * job["x"]}


class TestInlineEndpoint:
    """The serial backends' one transport, driven the way the master's
    round loop and the pool's map do, with either session type."""

    def _spawn(self, *faults):
        master = factory(seed=7)
        master.run_until_calibrated()
        schemes = {
            statistic.name: scheme_payload(statistic.histogram.scheme)
            for statistic in master.stats
        }
        transport = _InlineTransport(reply_timeout=30.0)
        endpoint = transport.spawn(
            0, 0, _serve_session,
            (_SlaveSession, factory, {}, derive_seed(7, 0), schemes, 0,
             faults),
        )
        return transport, endpoint

    def _spawn_pool_worker(self, *faults):
        transport = _InlineTransport(reply_timeout=30.0)
        endpoint = transport.spawn(
            0, 0, _serve_session, (_PoolSession, _double, faults)
        )
        return transport, endpoint

    def test_post_report_kill_delivers_then_fails_next_send(self):
        transport, endpoint = self._spawn(
            FaultSpec(kind="kill", slave_id=0, round=1, phase="post_report")
        )
        endpoint.send(("chunk", 50))
        # The report went out before the exit, so the master merges it...
        assert transport.wait([endpoint], timeout=30.0) == [endpoint]
        assert endpoint.recv().total_accepted >= 50
        # ...and only the next round's send finds the slave gone.
        with pytest.raises(BrokenPipeError) as caught:
            endpoint.send(("chunk", 50))
        assert disconnect_cause(caught.value, "send failed") == (
            "injected fault: kill"
        )

    def test_hang_is_silence_not_a_sleep(self):
        transport, endpoint = self._spawn(
            FaultSpec(kind="hang", slave_id=0, round=1, delay=60.0)
        )
        started = time.monotonic()
        endpoint.send(("chunk", 50))
        assert transport.wait([endpoint], timeout=30.0) == []
        assert time.monotonic() - started < 10.0

    def test_pool_worker_reports_each_configure(self):
        transport, endpoint = self._spawn_pool_worker()
        for job_id, x in (("a", 1), ("b", 4)):
            endpoint.send(("configure", job_id, {"x": x}))
            assert transport.wait([endpoint], timeout=30.0) == [endpoint]
            assert endpoint.recv() == ("result", job_id, {"value": 2 * x})

    def test_pool_worker_kill_is_a_dead_pipe_naming_its_cause(self):
        transport, endpoint = self._spawn_pool_worker(
            FaultSpec(kind="kill", slave_id=0, round=2, phase="pre_run")
        )
        endpoint.send(("configure", "a", {"x": 1}))
        assert endpoint.recv() == ("result", "a", {"value": 2})
        endpoint.send(("configure", "b", {"x": 2}))
        assert transport.wait([endpoint], timeout=30.0) == [endpoint]
        with pytest.raises(BrokenPipeError) as caught:
            endpoint.recv()
        assert disconnect_cause(caught.value, "pipe closed") == (
            "injected fault: kill"
        )

    def test_pool_worker_hang_moves_the_clock_not_the_host(self):
        transport, endpoint = self._spawn_pool_worker(
            FaultSpec(kind="hang", slave_id=0, round=1, delay=60.0)
        )
        started, clock = time.monotonic(), transport._now()
        endpoint.send(("configure", "a", {"x": 1}))
        assert transport.wait([endpoint], timeout=45.0) == []
        # The empty wait stood for its whole timeout on the transport's
        # clock, so a deadline inside it has passed; the host never slept.
        assert transport._now() - clock >= 45.0
        assert time.monotonic() - started < 10.0


# -- recovery -----------------------------------------------------------------


class TestSeeds:
    def test_generation_zero_matches_historical_rule(self):
        for master_seed in (0, 42):
            for slave_id in range(8):
                assert derive_seed(master_seed, slave_id, 0) == (
                    master_seed + 0x9E3779B9 * (slave_id + 1)
                ) & 0x7FFFFFFF

    def test_generations_get_distinct_seeds(self):
        seeds = {derive_seed(7, 1, gen) for gen in range(16)}
        assert len(seeds) == 16

    def test_lineage_registers_and_reissues_idempotently(self):
        lineage = SeedLineage(master_seed=3)
        first = lineage.issue(0, 0)
        assert lineage.issue(0, 0) == first  # same holder: idempotent
        assert first in lineage
        issued = lineage.issued()
        assert (first, 0, 0) in issued
        assert any(slave == -1 for _, slave, _ in issued)  # the master


class TestBackoff:
    def test_generation_zero_is_free(self):
        assert backoff_delay(0, base=1.0, cap=10.0, jitter=0.0) == 0.0

    def test_exponential_growth_capped(self):
        delays = [
            backoff_delay(g, base=1.0, cap=5.0, jitter=0.0)
            for g in range(1, 6)
        ]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_deterministic(self):
        a = backoff_delay(2, base=1.0, cap=60.0, jitter=0.5, jitter_seed=9)
        b = backoff_delay(2, base=1.0, cap=60.0, jitter=0.5, jitter_seed=9)
        assert a == b
        assert 2.0 <= a <= 3.0

    def test_policy_budgets(self):
        policy = RespawnPolicy(max_restarts_per_slave=2)
        assert policy.allows(0) and policy.allows(1)
        assert not policy.allows(2)  # per-slave budget spent


# -- checkpoint ---------------------------------------------------------------


def _state(**overrides):
    base = dict(
        master_seed=7,
        n_slaves=2,
        chunk_size=100,
        round=3,
        master_events=5000,
        schemes={"rt": (0.0, 2.0, 4)},
        targets={"rt": {
            "mean_accuracy": 0.05, "quantile_targets": [[0.95, 0.1]],
            "confidence": 0.95, "min_accepted": 100,
        }},
        merged={"rt": {
            "scheme": (0.0, 2.0, 4), "counts": [5, 6, 7, 8],
            "underflow": 1, "overflow": 2, "count": 29,
            "sum": 12.5, "sum_sq": 9.25,
            "min_seen": 0.01, "max_seen": float("inf"),
        }},
        slaves=[
            SlaveCheckpoint(slave_id=0, seed=11, generation=0,
                            chunks=[100, 200], events_processed=4000,
                            total_accepted=300),
            SlaveCheckpoint(slave_id=1, seed=12, generation=1,
                            chunks=[200], owed=100, restarts=1,
                            prior_events=900, prior_accepted=80),
        ],
        dead={},
        lineage=[(7, -1, 0), (11, 0, 0), (12, 1, 1)],
        total_restarts=1,
    )
    base.update(overrides)
    return CheckpointState(**base)


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        state = _state()
        write_checkpoint(path, state)
        loaded = read_checkpoint(path)
        assert loaded.round == state.round
        assert loaded.schemes == {"rt": (0.0, 2.0, 4)}
        assert loaded.merged["rt"]["counts"] == [5, 6, 7, 8]
        assert loaded.merged["rt"]["max_seen"] == float("inf")
        assert len(loaded.slaves) == 2
        restored = {s.slave_id: s for s in loaded.slaves}
        assert restored[1].owed == 100
        assert restored[1].prior_events == 900
        assert loaded.lineage == [(7, -1, 0), (11, 0, 0), (12, 1, 1)]
        assert loaded.total_restarts == 1

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        write_checkpoint(path, _state())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop the tail
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        path.write_text('{"record": "meta"\n')
        with pytest.raises(CheckpointError, match="invalid JSON"):
            read_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        write_checkpoint(path, _state(version=1))
        text = path.read_text().replace('"version": 1', '"version": 99')
        path.write_text(text)
        with pytest.raises(CheckpointError, match="version 99"):
            read_checkpoint(path)

    def test_write_is_atomic(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        write_checkpoint(path, _state(round=1))
        write_checkpoint(path, _state(round=2))
        assert read_checkpoint(path).round == 2
        assert not os.path.exists(str(path) + ".tmp")


# -- integration: degraded paths & cause codes --------------------------------


KW = dict(n_slaves=3, master_seed=7, chunk_size=400, backend="serial")


class TestDegradedChaos:
    def test_kill_before_report_degrades_with_cause(self):
        plan = FaultPlan.single("kill", slave_id=1, round=1,
                                phase="pre_report")
        result = ParallelSimulation(factory, fault_plan=plan, **KW).run()
        assert result.converged
        assert result.degraded
        assert result.dead_slaves == [1]
        assert result.failure_causes[1].startswith("injected fault")
        assert result.restarts == 0

    def test_kill_after_report_keeps_first_round_work(self):
        post = ParallelSimulation(
            factory,
            fault_plan=FaultPlan.single("kill", slave_id=1, round=1,
                                        phase="post_report"),
            **KW,
        ).run()
        pre = ParallelSimulation(
            factory,
            fault_plan=FaultPlan.single("kill", slave_id=1, round=1,
                                        phase="pre_report"),
            **KW,
        ).run()
        assert post.degraded and post.dead_slaves == [1]
        # Death *after* the send keeps the round-1 report on the books
        # (merged work is never erased); death before it does not.
        assert post.slave_events[1] > 0
        assert pre.slave_events[1] == 0

    def test_traced_chaos_run_records_the_schedule(self):
        from repro.observability import Tracer

        sink = io.StringIO()
        simulation = ParallelSimulation(
            factory, fault_plan=FaultPlan.single("kill", slave_id=1, round=1),
            **KW,
        )
        simulation.attach_tracer(Tracer(sink))
        assert simulation.run().dead_slaves == [1]
        scheduled = [
            record["fields"]
            for record in map(json.loads, sink.getvalue().splitlines())
            if record["name"] == "fault_scheduled"
        ]
        assert scheduled == [{"slave": 1, "round": 1, "fault": "kill",
                              "generation": 0, "phase": "pre_report"}]

    def test_result_dict_carries_fault_fields(self):
        from repro.engine.report import parallel_result_to_dict

        plan = FaultPlan.single("kill", slave_id=2, round=1)
        payload = parallel_result_to_dict(
            ParallelSimulation(factory, fault_plan=plan, **KW).run()
        )
        assert payload["degraded"] is True
        assert payload["dead_slaves"] == [2]
        assert "2" in payload["failure_causes"]
        assert payload["restarts"] == 0
        assert payload["resumed"] is False
        assert "response_time" in payload["merged_digests"]


#: Kills slave 0 of a run on the in-memory transport, whose workers are
#: threads of this process, and prints what the run reports.
IN_MEMORY_KILL = """
import json
from repro.faults import FaultPlan
from repro.parallel import ParallelSimulation
from repro.parallel.memory import InMemoryTransport
from tests.test_faults import factory

transport = InMemoryTransport()
try:
    result = ParallelSimulation(
        factory, n_slaves=2, master_seed=7, chunk_size=1500,
        backend="remote", transport=transport, join_timeout=15.0,
        fault_plan=FaultPlan.single("kill", slave_id=0, round=1),
    ).run()
finally:
    transport.close()
print(json.dumps([result.converged, result.dead_slaves,
                  result.failure_causes[0]]))
"""


class TestInMemoryKill:
    def test_kill_ends_the_worker_thread_not_the_master(self):
        # In a child interpreter: a kill that took the whole process
        # down would otherwise take the test session with it.
        root = Path(__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-c", IN_MEMORY_KILL],
            cwd=root, capture_output=True, text=True, timeout=300,
            env={**os.environ,
                 "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
        )
        assert done.returncode == 0, (done.returncode, done.stderr)
        converged, dead, cause = json.loads(done.stdout.splitlines()[-1])
        assert converged
        assert dead == [0]
        assert cause == "pipe closed"


class TestRecovery:
    def test_respawn_recovers_to_undegraded(self):
        plan = FaultPlan.single("kill", slave_id=1, round=1,
                                phase="pre_report")
        result = ParallelSimulation(
            factory, fault_plan=plan, respawn=NO_BACKOFF, **KW
        ).run()
        assert result.converged
        assert not result.degraded
        assert result.dead_slaves == []
        assert result.restarts == 1

    def test_respawn_budget_exhaustion_degrades(self):
        # Kill generation 0 and its replacement (generation 1) with a
        # one-restart budget: the second death must stick.
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", slave_id=1, round=1),
            FaultSpec(kind="kill", slave_id=1, round=2, generation=1),
        ))
        policy = RespawnPolicy(max_restarts_per_slave=1,
                               backoff_base=0.0, jitter=0.0)
        result = ParallelSimulation(
            factory, fault_plan=plan, respawn=policy, **KW
        ).run()
        assert result.degraded
        assert result.dead_slaves == [1]
        assert result.restarts == 1

    def test_replacement_uses_fresh_seed_lineage(self):
        lineage = SeedLineage(master_seed=7)
        original = lineage.issue(1, 0)
        replacement = lineage.issue(1, 1)
        assert replacement != original

    @pytest.mark.parametrize("kind,kwargs", [
        ("kill", {"phase": "pre_run"}),
        ("kill", {"phase": "pre_report"}),
        ("kill", {"phase": "post_report"}),
        ("drop_report", {}),
        ("corrupt_payload", {}),
        ("hang", {"delay": 60.0}),
    ])
    def test_serial_and_process_chaos_agree(self, kind, kwargs):
        plan = FaultPlan.single(kind, slave_id=1, round=1, **kwargs)
        # The process backend sits out the whole deadline on a hang
        # and on a dropped report.
        quick = kind in ("hang", "drop_report")
        common = dict(fault_plan=plan, respawn=NO_BACKOFF,
                      round_timeout=2.0 if quick else 30.0)
        serial = ParallelSimulation(factory, **{**KW, **common}).run()
        process = ParallelSimulation(
            factory, **{**KW, **common, "backend": "process"}
        ).run()
        assert serial.merged_digests == process.merged_digests
        assert serial.rounds == process.rounds
        assert not serial.degraded and not process.degraded
        assert serial.restarts == process.restarts == 1

    def test_hang_hits_heartbeat_timeout(self):
        plan = FaultPlan.single("hang", slave_id=2, round=1, delay=60.0)
        result = ParallelSimulation(
            factory, fault_plan=plan, round_timeout=3.0,
            **{**KW, "backend": "process"},
        ).run()
        assert result.degraded
        assert result.dead_slaves == [2]
        assert result.failure_causes[2] == "heartbeat timeout"

    def test_serial_hang_hits_heartbeat_timeout_without_waiting(self):
        plan = FaultPlan.single("hang", slave_id=2, round=1, delay=60.0)
        started = time.monotonic()
        result = ParallelSimulation(
            factory, fault_plan=plan, round_timeout=30.0, **KW
        ).run()
        # Same round, same cause as the process backend — but the
        # inline transport never sits out the 30 s round deadline.
        assert time.monotonic() - started < 10.0
        assert result.degraded
        assert result.dead_slaves == [2]
        assert result.failure_causes[2] == "heartbeat timeout"

    def test_supervision_deadline_reads_the_transport_clock(self):
        # Slave 0 hangs through round 1: the process backend waits out
        # the 1.5 s reply deadline, the inline transport moves its clock
        # past it.  Either way the 1 s run deadline has passed, and both
        # backends must stop on it after the same round.
        plan = FaultPlan.single("hang", slave_id=0, round=1)
        outcomes = []
        for backend in ("serial", "process"):
            with pytest.raises(SupervisionError) as info:
                ParallelSimulation(
                    factory, n_slaves=2, master_seed=7, backend=backend,
                    fault_plan=plan, respawn=NO_BACKOFF, round_timeout=1.5,
                    supervision=SupervisionPolicy(deadline=1.0),
                ).run()
            rounds = re.search(r"after (\d+) round", str(info.value))
            outcomes.append((info.value.cause, rounds and rounds.group(1)))
        assert outcomes == [("deadline exceeded", "1")] * 2

    def test_hung_slave_does_not_starve_survivors(self):
        # The master waits on all outstanding pipes concurrently: slave
        # 0 hanging for the whole round window must not consume slaves
        # 1-2's share of the deadline and cascade into false deaths.
        plan = FaultPlan.single("hang", slave_id=0, round=1, delay=60.0)
        result = ParallelSimulation(
            factory, fault_plan=plan, round_timeout=3.0,
            **{**KW, "backend": "process"},
        ).run()
        assert result.converged
        assert result.dead_slaves == [0]
        assert result.failure_causes == {0: "heartbeat timeout"}

    def test_failed_respawn_keeps_cause_and_budget(self, tmp_path):
        # Regression: the book used to advance generation, restart
        # budget and seed lineage (and forget the death's cause)
        # *before* the spawn; a transport with no capacity then left
        # the slave dead without a cause and the run died on KeyError.
        class NoRespawnCapacity(InMemoryTransport):
            def spawn(self, worker_id, generation, entry, args, timeout=None):
                if generation > 0:
                    raise TransportCapacityError("no slot for a respawn")
                return super().spawn(
                    worker_id, generation, entry, args, timeout=timeout
                )

        path = tmp_path / "ck.jsonl"
        transport = NoRespawnCapacity()
        try:
            result = ParallelSimulation(
                factory,
                fault_plan=FaultPlan.single(
                    "corrupt_payload", slave_id=1, round=1
                ),
                respawn=NO_BACKOFF, checkpoint_path=path,
                transport=transport, **{**KW, "backend": "process"},
            ).run()
        finally:
            transport.close()
        assert result.degraded
        assert result.dead_slaves == [1]
        assert result.failure_causes[1].startswith("corrupt payload")
        assert result.restarts == 0
        state = read_checkpoint(path)
        assert state.dead == {1: result.failure_causes[1]}
        assert state.total_restarts == 0
        recorded = {s.slave_id: s for s in state.slaves}
        assert recorded[1].generation == 0 and recorded[1].restarts == 0

    def test_all_slaves_dead_still_raises(self):
        plan = FaultPlan(specs=tuple(
            FaultSpec(kind="kill", slave_id=i, round=1, phase="pre_run")
            for i in range(3)
        ))
        with pytest.raises(ParallelError, match="every slave has died"):
            ParallelSimulation(factory, fault_plan=plan, **KW).run()


# -- integration: checkpoint / resume -----------------------------------------


class TestResume:
    def _interrupt(self, tmp_path, **extra):
        path = tmp_path / "ck.jsonl"
        ParallelSimulation(
            factory, max_rounds=1, checkpoint_path=path, **{**KW, **extra}
        ).run()
        return path

    def test_serial_resume_is_bit_identical(self, tmp_path):
        uninterrupted = ParallelSimulation(factory, **KW).run()
        path = self._interrupt(tmp_path)
        resumed = ParallelSimulation(factory, **KW).run(resume_from=path)
        assert resumed.resumed
        assert resumed.converged
        assert resumed.rounds == uninterrupted.rounds
        assert resumed.merged_digests == uninterrupted.merged_digests
        assert resumed.total_accepted == uninterrupted.total_accepted
        means = {
            name: estimate.mean
            for name, estimate in uninterrupted.estimates.items()
        }
        for name, estimate in resumed.estimates.items():
            assert estimate.mean == means[name]

    def test_process_resume_is_bit_identical(self, tmp_path):
        uninterrupted = ParallelSimulation(factory, **KW).run()
        path = self._interrupt(tmp_path)
        resumed = ParallelSimulation(
            factory, round_timeout=60.0, **{**KW, "backend": "process"}
        ).run(resume_from=path)
        assert resumed.merged_digests == uninterrupted.merged_digests

    def test_resume_from_converged_checkpoint_is_noop(self, tmp_path):
        path = tmp_path / "fin.jsonl"
        full = ParallelSimulation(factory, checkpoint_path=path, **KW).run()
        resumed = ParallelSimulation(factory, **KW).run(resume_from=path)
        assert resumed.converged
        assert resumed.rounds == full.rounds
        assert resumed.merged_digests == full.merged_digests

    def test_incompatible_config_rejected(self, tmp_path):
        path = self._interrupt(tmp_path)
        with pytest.raises(CheckpointError, match="chunk_size"):
            ParallelSimulation(
                factory, **{**KW, "chunk_size": 999}
            ).run(resume_from=path)

    @pytest.mark.parametrize("knob", ["delta_reports", "adaptive_chunking"])
    def test_checkpoint_from_a_removed_knob_is_refused(self, tmp_path, knob):
        # Written by a master that still had the option, with it off: the
        # schedule (or report form) it followed no longer exists. Such a
        # file is version 1, whose meta record carried the three schedule
        # settings that have since become constants; no reader for it is
        # kept, so it is refused by version before any field is trusted.
        path = write_checkpoint(tmp_path / "old.jsonl", _state(version=1))
        meta, *rest = path.read_text().splitlines()
        meta = json.loads(meta)
        meta.update(adaptive_chunking=True, max_chunk_size=1600,
                    delta_reports=True)
        meta[knob] = False
        path.write_text("\n".join([json.dumps(meta), *rest]) + "\n")
        with pytest.raises(CheckpointError, match="checkpoint version 1 "):
            ParallelSimulation(
                factory, n_slaves=2, master_seed=7, chunk_size=100,
            ).run(resume_from=path)

    def test_dead_slave_state_survives_checkpoint(self, tmp_path):
        # A permanently dead slave's generation, restart count, and
        # accounting must be checkpointed too: resetting them on resume
        # would refill the respawn budget and re-issue a seed the
        # lineage already spent on the dead predecessor, replaying draws
        # the checkpointed merged histograms already contain.
        plan = FaultPlan(specs=(
            FaultSpec(kind="kill", slave_id=1, round=1, phase="pre_report"),
            FaultSpec(kind="kill", slave_id=1, round=2, generation=1),
        ))
        policy = RespawnPolicy(max_restarts_per_slave=1,
                               backoff_base=0.0, jitter=0.0)
        path = tmp_path / "ck.jsonl"
        ParallelSimulation(
            factory, max_rounds=2, checkpoint_path=path,
            fault_plan=plan, respawn=policy, **KW
        ).run()
        state = read_checkpoint(path)
        recorded = {s.slave_id: s for s in state.slaves}
        assert set(recorded) == {0, 1, 2}  # dead slave 1 included
        assert recorded[1].generation == 1
        assert recorded[1].restarts == 1
        assert 1 in state.dead
        resumed = ParallelSimulation(
            factory, respawn=policy, **KW
        ).run(resume_from=path)
        # The spent budget survives the resume: slave 1 stays dead.
        assert resumed.degraded
        assert resumed.dead_slaves == [1]
        assert resumed.restarts == 1

    def test_resumed_degraded_run_keeps_dead_slave_accounting(self, tmp_path):
        # Slave 1 reports round 1, then dies: its merged contribution
        # and accepted/event counters must survive interrupt + resume.
        plan = FaultPlan.single("kill", slave_id=1, round=1,
                                phase="post_report")
        uninterrupted = ParallelSimulation(
            factory, fault_plan=plan, **KW
        ).run()
        path = tmp_path / "ck.jsonl"
        ParallelSimulation(
            factory, max_rounds=2, checkpoint_path=path,
            fault_plan=plan, **KW
        ).run()
        resumed = ParallelSimulation(factory, **KW).run(resume_from=path)
        assert resumed.degraded and resumed.dead_slaves == [1]
        assert resumed.merged_digests == uninterrupted.merged_digests
        assert resumed.total_accepted == uninterrupted.total_accepted
        assert resumed.slave_events[1] == uninterrupted.slave_events[1] > 0

    def test_resume_after_chaos_respawn(self, tmp_path):
        # Interrupt a run whose slave 1 died and was respawned; the
        # checkpoint must carry the generation-1 incarnation and resume
        # must converge healthy.
        plan = FaultPlan.single("kill", slave_id=1, round=1,
                                phase="pre_report")
        path = tmp_path / "ck.jsonl"
        ParallelSimulation(
            factory, max_rounds=1, checkpoint_path=path,
            fault_plan=plan, respawn=NO_BACKOFF, **KW
        ).run()
        state = read_checkpoint(path)
        generations = {s.slave_id: s.generation for s in state.slaves}
        assert generations[1] == 1
        resumed = ParallelSimulation(factory, **KW).run(resume_from=path)
        assert resumed.converged
        assert not resumed.degraded
        # The pre-interruption restart stays on the books.
        assert resumed.restarts == 1
