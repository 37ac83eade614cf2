"""Regression tests for three WorkerPool scheduling-loop bugs.

Each test pins one defect that shipped in the pre-transport pool:

1. **Pool poisoning after a job error** — ``map`` raised
   :class:`PoolJobError` mid-drain and abandoned the other workers'
   in-flight results in their pipes; the *next* ``map`` read those
   stale reports first, mismatched them against its own jobs, and
   condemned healthy workers as corrupt.
2. **Blocking respawn backoff** — ``_condemn`` slept the exponential
   backoff inside the scheduling loop, stalling result collection from
   every healthy worker while their job deadlines kept ticking.
3. **Dispatch by ``id()`` of a pipe** — the ready-connection lookup
   keyed on ``id(pipe)``, which a recycled allocation could alias to
   the wrong worker; dispatch now keys on endpoint identity and skips
   stale readiness signals outright.
"""

import time
from collections import deque

import pytest

from repro.faults import FaultPlan, RespawnPolicy
from repro.parallel.pool import PoolJobError, WorkerPool
from repro.parallel.transport import (
    Transport,
    WorkerEndpoint,
    collect_replies,
)


def flaky_runner(job):
    """Sleeps/raises/succeeds as its job payload directs."""
    if job.get("sleep"):
        time.sleep(job["sleep"])
    if job.get("boom"):
        raise ValueError(f"boom on {job}")
    return {"value": job["x"]}


class TestReuseAfterJobError:
    def test_second_map_does_not_condemn_healthy_workers(self):
        """A job error must not poison the pool for the next map call.

        Worker 0 is mid-flight on a slow job when worker 1's job
        raises.  The pool must absorb worker 0's in-flight result
        before surfacing the error; otherwise the next ``map`` reads
        that stale report first, mismatches it against its own job,
        and wrongly condemns a healthy worker as corrupt.
        """
        with WorkerPool(flaky_runner, n_workers=2, job_timeout=30.0) as pool:
            jobs = [
                ("slow", {"x": 1, "sleep": 0.3}),
                ("bad", {"x": 2, "boom": True}),
            ]
            with pytest.raises(PoolJobError) as excinfo:
                pool.map(jobs)
            assert excinfo.value.job_id == "bad"
            assert "bad" in str(excinfo.value)
            results = pool.map([("c", {"x": 3}), ("d", {"x": 4})])
            assert results == {"c": {"value": 3}, "d": {"value": 4}}
            assert pool.stats.deaths == 0
            assert pool.stats.failure_causes == {}

    def test_error_carries_job_id(self):
        with WorkerPool(flaky_runner, n_workers=1, job_timeout=30.0) as pool:
            with pytest.raises(PoolJobError) as excinfo:
                pool.map([("only", {"x": 0, "boom": True})])
            assert excinfo.value.job_id == "only"


class TestNonBlockingBackoff:
    def test_backoff_does_not_stall_result_collection(self):
        """A dead worker's backoff must not serialize the survivors.

        Worker 0 is killed on its first configure under a 2 s backoff
        policy.  The old pool slept those 2 s inside the scheduling
        loop; the fixed pool schedules the respawn as a due time and
        keeps collecting, so the whole map finishes well under the
        backoff while the survivor churns through every job.
        """
        plan = FaultPlan.single("kill", slave_id=0, round=1, phase="pre_run")
        pool = WorkerPool(
            flaky_runner,
            n_workers=2,
            master_seed=5,
            job_timeout=30.0,
            respawn=RespawnPolicy(backoff_base=2.0, jitter=0.0),
            fault_plan=plan,
        )
        with pool:
            jobs = [(f"j{i}", {"x": i, "sleep": 0.05}) for i in range(6)]
            started = time.monotonic()
            results = pool.map(jobs)
            elapsed = time.monotonic() - started
        assert {name: doc["value"] for name, doc in results.items()} == {
            f"j{i}": i for i in range(6)
        }
        assert pool.stats.deaths == 1
        assert pool.stats.jobs_requeued == 1
        assert pool.stats.failure_causes == {}
        # Pre-fix the _condemn sleep alone made this >= 2.0 s.
        assert elapsed < 1.5, (
            f"map stalled {elapsed:.2f}s — respawn backoff is blocking "
            f"the scheduling loop"
        )

    def test_respawned_worker_rejoins_after_due_time(self):
        """With a tiny backoff the replacement actually comes back."""
        plan = FaultPlan.single("kill", slave_id=0, round=1, phase="pre_run")
        pool = WorkerPool(
            flaky_runner,
            n_workers=1,
            master_seed=5,
            job_timeout=30.0,
            respawn=RespawnPolicy(backoff_base=0.05, jitter=0.0),
            fault_plan=plan,
        )
        with pool:
            results = pool.map([("a", {"x": 1}), ("b", {"x": 2})])
        assert results == {"a": {"value": 1}, "b": {"value": 2}}
        assert pool.stats.deaths == 1
        assert pool.stats.restarts == 1
        assert pool.stats.failure_causes == {}


# -- scripted transport for dispatch-identity tests ---------------------------


class ScriptedEndpoint(WorkerEndpoint):
    """An in-memory endpoint whose inbox the test controls."""

    def __init__(self, worker_id, generation=0):
        self.worker_id = worker_id
        self.generation = generation
        self.inbox = deque()
        self.sent = []
        self.closed = False

    def send(self, message):
        if self.closed:
            raise BrokenPipeError("scripted endpoint closed")
        self.sent.append(message)

    def recv(self):
        if not self.inbox:
            raise EOFError("scripted inbox empty")
        return self.inbox.popleft()

    def poll(self, timeout=None):
        return bool(self.inbox)

    def close(self):
        self.closed = True

    def describe(self):
        return {"transport": "scripted", "worker": self.worker_id}


class ScriptedTransport(Transport):
    """Replays a scripted sequence of ``wait`` results.

    ``wait_script`` is a list of callables, each invoked with the
    endpoints the pool asked about and returning the "ready" list —
    including, when the script wants to model a buggy or racy fleet,
    endpoints the pool did *not* ask about or duplicates of one.
    """

    kind = "scripted"
    elastic = False

    def __init__(self, wait_script):
        super().__init__()
        self.endpoints = {}
        self.wait_script = list(wait_script)
        self.wait_calls = 0
        self.timeouts = []
        self.reaped = []

    def spawn(self, worker_id, generation, entry, args, timeout=None):
        endpoint = ScriptedEndpoint(worker_id, generation)
        self.endpoints[worker_id] = endpoint
        return endpoint

    def wait(self, endpoints, timeout=None):
        step = self.wait_script[min(self.wait_calls,
                                    len(self.wait_script) - 1)]
        self.wait_calls += 1
        self.timeouts.append(timeout)
        return step(list(endpoints))

    def capacity(self):
        return 1

    def reap(self, endpoint):
        self.reaped.append(endpoint)

    def shutdown(self, endpoints):
        for endpoint in endpoints:
            endpoint.close()


class TestDispatchIdentity:
    def test_stale_and_duplicate_ready_endpoints_are_skipped(self):
        """A condemned worker's endpoint showing up "ready" again in
        the same drain must be skipped, not re-attributed.

        The script's first wait returns worker 0's endpoint *twice*
        (message plus EOF both signaled — the shape a recycled-id()
        lookup used to misattribute) alongside worker 1's.  Worker 0's
        corrupt report condemns it on the first entry; the duplicate
        must then fall through the identity guard instead of
        double-condemning or crashing the drain.
        """
        first_batch = {}

        def script_first(endpoints):
            by_id = {e.worker_id: e for e in endpoints}
            ep0, ep1 = by_id[0], by_id[1]
            ep0.inbox.append(("result", "WRONG-JOB", {"value": -1}))
            ep1.inbox.append(("result", first_batch["ep1_job"],
                              {"value": 11}))
            return [ep0, ep0, ep1]

        def script_rest(endpoints):
            for endpoint in endpoints:
                if not endpoint.inbox:
                    job_id = endpoint.sent[-1][1]
                    endpoint.inbox.append(("result", job_id, {"value": 22}))
            return list(endpoints)

        transport = ScriptedTransport([script_first, script_rest])
        pool = WorkerPool(
            flaky_runner, n_workers=2, job_timeout=30.0,
            transport=transport,
        )
        pool.start()
        first_batch["ep1_job"] = "b"
        results = pool.map([("a", {"x": 1}), ("b", {"x": 2})])
        # Worker 0 was condemned exactly once (corrupt), its job "a"
        # requeued onto the survivor; worker 1's own report and the
        # requeued job both landed.
        assert set(results) == {"a", "b"}
        assert pool.stats.deaths == 1
        assert pool.stats.jobs_requeued == 1
        assert list(pool.stats.failure_causes) == [0]
        assert "corrupt payload" in pool.stats.failure_causes[0]
        assert pool.alive_workers == [1]

    def test_ready_endpoint_for_unassigned_worker_is_skipped(self):
        """Readiness for a worker with no in-flight job is a no-op."""

        def script(endpoints):
            for endpoint in endpoints:
                if endpoint.sent and not endpoint.inbox:
                    job_id = endpoint.sent[-1][1]
                    endpoint.inbox.append(
                        ("result", job_id, {"value": endpoint.worker_id})
                    )
            # Tack on an endpoint the pool never asked about.
            stray = ScriptedEndpoint(worker_id=7)
            return list(endpoints) + [stray]

        transport = ScriptedTransport([script])
        pool = WorkerPool(
            flaky_runner, n_workers=2, job_timeout=30.0,
            transport=transport,
        )
        results = pool.map([("a", {"x": 1})])
        assert set(results) == {"a"}
        assert pool.stats.deaths == 0


class TestCollectionTurn:
    """``collect_replies``: the one wait -> identity check -> recv ->
    expire turn under the master's round loop and the pool's ``map``."""

    @staticmethod
    def turn(ready, outstanding, **kwargs):
        transport = ScriptedTransport([lambda endpoints: list(ready)])
        replies = collect_replies(
            transport, outstanding, "pipe closed", **kwargs
        )
        return replies, transport.timeouts[0]

    def test_stale_duplicate_and_stray_readiness_is_dropped_unread(self):
        condemned, current, other = (
            ScriptedEndpoint(0), ScriptedEndpoint(0, 1), ScriptedEndpoint(1)
        )
        condemned.inbox.append("for the dead incarnation")
        other.inbox.append("report")
        replies, _ = self.turn(
            [condemned, other, other, ScriptedEndpoint(7)],
            {0: (current, None), 1: (other, None)},
        )
        assert replies == [(1, "report", None)]
        assert list(condemned.inbox) == ["for the dead incarnation"]

    def test_dead_channel_reports_the_fallback_cause(self):
        gone = ScriptedEndpoint(0)  # ready with nothing to read: EOF
        replies, _ = self.turn([gone], {0: (gone, None)})
        assert replies == [(0, None, "pipe closed")]

    def test_only_the_worker_whose_deadline_the_wait_reached_expires(self):
        now = time.monotonic()
        soon, later = ScriptedEndpoint(0), ScriptedEndpoint(1)
        replies, timeout = self.turn(
            [], {0: (soon, now + 0.05), 1: (later, now + 60.0)}
        )
        assert replies == [(0, None, "heartbeat timeout")]
        assert 0.0 <= timeout <= 0.05

    def test_extra_wake_shortens_the_wait_and_expires_nobody(self):
        now = time.monotonic()
        busy = ScriptedEndpoint(0)
        replies, timeout = self.turn(
            [], {0: (busy, now + 60.0)}, wake=now + 0.01
        )
        assert replies == []
        assert 0.0 <= timeout <= 0.01

    def test_wait_that_never_sleeps_times_silence_out_at_once(self):
        # The inline (serial) transport's wait returns what is queued
        # and never blocks: an hour-long deadline, or none at all, is
        # still silence the moment the wait comes back empty.
        hung, unbounded = ScriptedEndpoint(0), ScriptedEndpoint(1)
        started = time.monotonic()
        replies, timeout = self.turn(
            [], {0: (hung, started + 3600.0)}
        )
        assert replies == [(0, None, "heartbeat timeout")]
        assert timeout > 3500.0
        replies, timeout = self.turn([], {1: (unbounded, None)})
        assert replies == [(1, None, "heartbeat timeout")]
        assert timeout is None
        assert time.monotonic() - started < 5.0
