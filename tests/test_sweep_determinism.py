"""Cross-backend determinism matrix for the sweep engine.

Every backend is one ``WorkerPool.map``; only the transport differs.
For a fixed seed, the merged histogram digests of every point must be
bit-identical across {serial (one inline worker), persistent pool} ×
{prefetch on, off} × {fresh, cache-hit, resume}.  The serial/fresh/
prefetch-on cell is the reference; every other cell is compared to it.
Serial sweeps take the pool's faults, respawns and supervision too, so
the serial backend also runs a chaos matrix against the pool backend.

The remote backend joins the same matrix over a loopback TCP fleet
(:class:`~repro.parallel.transport.RemoteTransport` plus an in-process
:class:`~repro.parallel.agent.HostAgent`), including a chaos cell that
kills one remote worker mid-sweep and requires the respawned fleet to
reproduce the reference digests bit-for-bit.
"""

import time

import pytest

from repro.faults import FaultPlan, RespawnPolicy
from repro.parallel.agent import HostAgent
from repro.parallel.pool import PoolError
from repro.parallel.transport import RemoteTransport
from repro.sweep import SweepCache, SweepRunner, SweepSpec

#: Two tiny M/M/1 points — big enough to fill histograms, small enough
#: to run 18 matrix cells in seconds.
AXES = {"rho": [0.3, 0.6]}


def spec(prefetch=True):
    return SweepSpec(
        name="determinism-matrix",
        kind="factory",
        seed=17,
        factory="tests.sweep_factories:mm1_point",
        factory_kwargs={"prefetch": prefetch},
        axes=AXES,
        max_events=500_000,
    )


def run_cell(backend, prefetch, cache_state, tmp_path, spec_fn=spec,
             **runner_kwargs):
    """One matrix cell; returns its {point: {metric: digest}} map."""
    the_spec = spec_fn(prefetch=prefetch)
    cache = None
    if cache_state != "fresh":
        cache = SweepCache(tmp_path / f"{backend}-{prefetch}-{cache_state}")
        # Warm the cache first so the measured run serves hits...
        warm = SweepRunner(the_spec, backend=backend, jobs=2,
                           cache=cache, **runner_kwargs).run()
        assert warm.computed == len(warm.points)
        if cache_state == "resume":
            # ...except one evicted point: the rerun must recompute
            # exactly it and change nothing else.
            warm_points = warm.points
            assert cache.evict(warm_points[0].digest)
    result = SweepRunner(the_spec, backend=backend, jobs=2, cache=cache,
                         **runner_kwargs).run()
    if cache_state == "cache-hit":
        assert result.cache_hits == len(result.points)
    elif cache_state == "resume":
        assert result.cache_hits == len(result.points) - 1
        assert result.computed == 1
    return result.digests()


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    digests = run_cell(
        "serial", True, "fresh", tmp_path_factory.mktemp("reference")
    )
    for point_digests in digests.values():
        assert point_digests["response_time"]
    return digests


@pytest.mark.parametrize("cache_state", ["fresh", "cache-hit", "resume"])
@pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "direct"])
@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_matrix_cell_matches_reference(
    backend, prefetch, cache_state, reference, tmp_path
):
    assert run_cell(backend, prefetch, cache_state, tmp_path) == reference


# -- serial chaos cells -------------------------------------------------------

#: fault -> (kind, spec fields, job timeout).  Drops and hangs are
#: caught by the job deadline, so theirs is short; a hang is silence
#: only when it outlasts it.
CHAOS = {
    "kill-pre_run": ("kill", {"phase": "pre_run"}, 30.0),
    "kill-post_report": ("kill", {"phase": "post_report"}, 30.0),
    "drop_report": ("drop_report", {}, 0.5),
    "corrupt_payload": ("corrupt_payload", {}, 30.0),
    "hang": ("hang", {"delay": 1.5}, 0.5),
}


def chaos_cell(backend, fault, respawn):
    """The reference spec with worker 0's first job faulted, on a fleet
    of one: serial's only shape, and the pool's at ``jobs=1``."""
    kind, where, job_timeout = CHAOS[fault]
    return SweepRunner(
        spec(prefetch=True),
        backend=backend,
        jobs=1,
        job_timeout=job_timeout,
        fault_plan=FaultPlan.single(kind, slave_id=0, round=1, **where),
        respawn=(
            RespawnPolicy(backoff_base=0.0, jitter=0.0) if respawn else None
        ),
    ).run()


@pytest.mark.parametrize("fault", sorted(CHAOS))
def test_serial_chaos_respawn_cell_matches_reference(fault, reference):
    """A faulted serial sweep recovers to the clean digests and counts
    the death and the requeue the way the one-worker pool does."""
    serial = chaos_cell("serial", fault, respawn=True)
    pool = chaos_cell("pool", fault, respawn=True)
    assert serial.digests() == pool.digests() == reference
    assert not serial.degraded
    found = (serial.pool_stats.deaths, serial.pool_stats.jobs_requeued)
    expected = (pool.pool_stats.deaths, pool.pool_stats.jobs_requeued)
    if fault == "kill-post_report":
        # The result is out before the exit.  Inline, the next send
        # always finds the worker gone (nothing in flight to requeue);
        # over a pipe, a failed send or an EOF is the OS's choice.
        assert found == (1, 0) and expected in ((1, 0), (1, 1))
    else:
        assert found == expected == (1, 1)
    assert serial.pool_stats.restarts == pool.pool_stats.restarts == 1


@pytest.mark.parametrize("fault", sorted(CHAOS))
def test_serial_chaos_degrade_cell_fails_like_the_pool(fault):
    """Without respawn, losing the only worker ends a one-worker sweep,
    as it ends a one-worker pool's (``test_sweep.py``): a degraded
    sweep needs a survivor."""
    with pytest.raises(PoolError, match=r"every pool worker has died "
                                        r"\(1 started\)"):
        chaos_cell("serial", fault, respawn=False)


def test_serial_backoff_and_hang_cost_no_wall_time(reference):
    """On the inline transport a minute-long respawn backoff and an
    hour-long hang are instants on its clock, not host time."""
    started = time.monotonic()
    result = SweepRunner(
        spec(prefetch=True),
        backend="serial",
        fault_plan=FaultPlan.single("hang", slave_id=0, round=1,
                                    delay=3600.0),
        respawn=RespawnPolicy(
            backoff_base=60.0, backoff_cap=60.0, jitter=0.0
        ),
    ).run()
    assert time.monotonic() - started < 30.0
    assert result.digests() == reference
    stats = result.pool_stats
    assert (stats.deaths, stats.jobs_requeued, stats.restarts) == (1, 1, 1)


# -- remote loopback fleet cells ----------------------------------------------


@pytest.fixture(scope="module")
def remote_fleet():
    """One RemoteTransport + 2-slot loopback agent shared by the cells."""
    transport = RemoteTransport()
    transport.start()
    agent = HostAgent(transport.address, slots=2)
    agent.start()
    assert transport.wait_for_capacity(timeout=10.0)
    yield transport
    agent.stop(timeout=10.0)
    transport.close()


@pytest.mark.parametrize("cache_state", ["fresh", "cache-hit", "resume"])
def test_remote_cell_matches_reference(
    cache_state, reference, tmp_path, remote_fleet
):
    digests = run_cell(
        "remote", True, cache_state, tmp_path, transport=remote_fleet
    )
    assert digests == reference


def test_remote_chaos_cell_matches_reference(
    reference, tmp_path, remote_fleet
):
    """Killing one remote worker mid-sweep must not perturb digests."""
    result = SweepRunner(
        spec(prefetch=True),
        backend="remote",
        jobs=2,
        transport=remote_fleet,
        fault_plan=FaultPlan.single(
            "kill", slave_id=0, round=1, phase="pre_run"
        ),
        respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
    ).run()
    assert result.digests() == reference
    assert result.pool_stats.deaths == 1
    assert result.pool_stats.jobs_requeued == 1
    assert not result.degraded


# -- multiserver-job and cloning workload-class cells -------------------------

#: Each model sweeps its own defining knob; two points per sweep keeps
#: the added cells cheap while still exercising merge order.
MODEL_AXES = {
    "msj": {"rho": [0.4, 0.6]},
    "cloning": {"clones": [1, 2]},
}
MODEL_FACTORIES = {
    "msj": "tests.sweep_factories:msj_point",
    "cloning": "tests.sweep_factories:cloning_point",
}


def model_spec_fn(model):
    def build(prefetch=True):
        return SweepSpec(
            name=f"determinism-{model}",
            kind="factory",
            seed=23,
            factory=MODEL_FACTORIES[model],
            factory_kwargs={"prefetch": prefetch},
            axes=MODEL_AXES[model],
            max_events=300_000,
        )

    return build


@pytest.fixture(scope="module", params=sorted(MODEL_AXES))
def model(request):
    return request.param


@pytest.fixture(scope="module")
def model_reference(model, tmp_path_factory):
    digests = run_cell(
        "serial", True, "fresh",
        tmp_path_factory.mktemp(f"reference-{model}"),
        spec_fn=model_spec_fn(model),
    )
    for point_digests in digests.values():
        assert point_digests["response_time"]
    return digests


@pytest.mark.parametrize("prefetch", [True, False], ids=["prefetch", "direct"])
@pytest.mark.parametrize("backend", ["serial", "pool"])
def test_model_cell_matches_reference(
    backend, prefetch, model, model_reference, tmp_path
):
    digests = run_cell(
        backend, prefetch, "fresh", tmp_path, spec_fn=model_spec_fn(model)
    )
    assert digests == model_reference


@pytest.mark.parametrize("cache_state", ["cache-hit", "resume"])
def test_model_cache_cell_matches_reference(
    cache_state, model, model_reference, tmp_path
):
    digests = run_cell(
        "pool", True, cache_state, tmp_path, spec_fn=model_spec_fn(model)
    )
    assert digests == model_reference


def test_model_remote_chaos_cell_matches_reference(
    model, model_reference, remote_fleet
):
    """Mid-run kill + respawn must reproduce the new models bit-for-bit."""
    result = SweepRunner(
        model_spec_fn(model)(prefetch=True),
        backend="remote",
        jobs=2,
        transport=remote_fleet,
        fault_plan=FaultPlan.single(
            "kill", slave_id=0, round=1, phase="pre_run"
        ),
        respawn=RespawnPolicy(backoff_base=0.0, jitter=0.0),
    ).run()
    assert result.digests() == model_reference
    assert result.pool_stats.deaths == 1
    assert result.pool_stats.jobs_requeued == 1
    assert not result.degraded
