"""Sweep-engine benchmark: persistent pool vs per-point fleet spawn.

The historical way to regenerate a figure was a hand-rolled loop that
spun up a fresh ``ParallelSimulation`` slave fleet for every point —
paying process spawn, warm-up, and calibration *per slave per point*
(the fig10 ``run_point`` pattern).  ``repro.sweep`` instead keeps one
persistent pool alive across the whole sweep: each point runs whole on
one worker, so warm-up and calibration are paid once per point and
process startup once per sweep.

This benchmark runs the same 8-point fig7-style sweep (a web-workload
cluster at sizes 2-9, response time on the observed server) through:

- **spawn loop** — fresh ``ParallelSimulation`` fleet of ``JOBS`` slaves
  per point, torn down after each (the historical loop);
- **pool, cold** — ``SweepRunner`` pool backend, ``JOBS`` persistent
  workers, empty content-addressed cache;
- **pool, warm** — the identical run again: every point must come from
  the cache with bit-identical per-metric histogram digests.

Acceptance bars (asserted here; the table goes to
``benchmarks/results/sweep_pool.txt``): pool >= 2x faster than the
spawn loop; warm rerun < 5% of the cold pool time with identical
digests.
"""

import tempfile
import time

from conftest import save_rows
from repro.parallel import ParallelSimulation
from repro.sweep import SweepCache, SweepRunner, SweepSpec

JOBS = 4
SIZES = (2, 3, 4, 5, 6, 7, 8, 9)  # 8 points
WARMUP = 300
CALIBRATION = 2000


def sweep_point(seed, n_servers=4, accuracy=0.1):
    """One fig7-style point (module-level so pool workers can import it)."""
    from repro import Experiment, Server
    from repro.workloads import by_name

    experiment = Experiment(seed=seed, warmup_samples=WARMUP,
                            calibration_samples=CALIBRATION)
    workload = by_name("web").at_load(0.5)
    servers = [Server(cores=1, name=f"s{index}") for index in range(n_servers)]
    for server in servers:
        experiment.add_source(workload, target=server)
    experiment.track_response_time(servers[0], mean_accuracy=accuracy)
    return experiment


def sweep_spec() -> SweepSpec:
    return SweepSpec(
        name="bench-sweep",
        kind="factory",
        seed=71,
        factory="bench_sweep:sweep_point",
        factory_kwargs={"accuracy": 0.1},
        axes={"n_servers": list(SIZES)},
        max_events=30_000_000,
    )


def spawn_loop(spec: SweepSpec) -> float:
    """The historical loop: one fresh slave fleet per point."""
    started = time.perf_counter()
    for point in spec.points():
        kwargs = dict(spec.factory_kwargs)
        kwargs.update(point.params)
        simulation = ParallelSimulation(
            sweep_point,
            factory_kwargs=kwargs,
            n_slaves=JOBS,
            master_seed=point.seed,
            backend="process",
            chunk_size=2000,
        )
        result = simulation.run()
        if not result.converged:
            raise RuntimeError(f"spawn-loop point {point.params} diverged")
    return time.perf_counter() - started


def timed_pool(spec: SweepSpec, cache: SweepCache):
    started = time.perf_counter()
    result = SweepRunner(spec, backend="pool", jobs=JOBS, cache=cache).run()
    return time.perf_counter() - started, result


def study():
    """``(spawn wall, cold wall and result, warm wall and result)``."""
    spec = sweep_spec()
    spawn_wall = spawn_loop(spec)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-cache-") as root:
        cold_wall, cold = timed_pool(spec, SweepCache(root))
        warm_wall, warm = timed_pool(spec, SweepCache(root))
    return spawn_wall, (cold_wall, cold), (warm_wall, warm)


def test_sweep_pool_vs_spawn_loop(benchmark):
    spawn_wall, (cold_wall, cold), (warm_wall, warm) = benchmark.pedantic(
        study, rounds=1, iterations=1
    )
    points = len(cold.points)
    identical = warm.digests() == cold.digests()
    save_rows(
        "sweep_pool",
        ["run", "points", "jobs", "wall_s", "vs_cold", "cache_hits",
         "digests_match_cold"],
        [
            ("spawn loop", points, JOBS, spawn_wall, spawn_wall / cold_wall,
             0, "-"),
            ("pool, cold", points, JOBS, cold_wall, 1.0, cold.cache_hits,
             True),
            ("pool, warm", points, JOBS, warm_wall, warm_wall / cold_wall,
             warm.cache_hits, identical),
        ],
    )

    assert identical, "histogram digests differ between cold and warm runs"
    assert warm.cache_hits == points, (
        f"warm run recomputed points ({warm.cache_hits} hits)"
    )
    assert spawn_wall / cold_wall >= 2.0, (
        f"pool speedup {spawn_wall / cold_wall:.2f}x < 2x"
    )
    assert warm_wall / cold_wall <= 0.05, (
        f"warm rerun took {warm_wall / cold_wall:.1%} of cold (>= 5%)"
    )
