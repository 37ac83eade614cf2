"""SweepRunner: execute a SweepSpec through one worker pool.

The runner turns a :class:`~repro.sweep.spec.SweepSpec` into results:

1. every point is content-addressed
   (:meth:`~repro.sweep.spec.SweepSpec.point_digest`) and looked up in
   the :class:`~repro.sweep.cache.SweepCache` first — a re-run after
   editing one point recomputes only that point;
2. cache misses are scheduled by one
   :meth:`~repro.parallel.pool.WorkerPool.map` whatever the backend;
   only the transport differs: one worker stepped in-process on the
   inline transport (``backend="serial"``), persistent forked workers
   (``"pool"``), or workers on remote agents (``"remote"``);
3. completed payloads are verified against the point digest, written
   back to the cache, and assembled into a :class:`SweepResult` in
   canonical point order — scheduling order can never leak into
   results.

Observability: with a tracer attached the runner emits one
``sweep/point`` event per point (digest, cache status, convergence) and
``sweep/cache_*`` counters; with a host-clocked tracer the whole run is
wrapped in a ``sweep/run`` span.  Fault tolerance on every backend
follows :mod:`repro.parallel.pool`: a dead worker mid-sweep costs one
point's recompute, not the run, and a point that raises is a
:class:`~repro.parallel.pool.PoolJobError` naming it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.parallel.pool import PoolStats, WorkerPool
from repro.parallel.transport import _InlineTransport
from repro.sweep.cache import SweepCache
from repro.sweep.spec import (
    SweepError,
    SweepPoint,
    SweepSpec,
    apply_params,
    content_digest,
    resolve_callable,
)

#: Execution backends, cheapest-isolation first.
BACKENDS = ("serial", "pool", "remote")


# -- the unit of work ---------------------------------------------------------


def run_point(job: dict) -> dict:
    """Execute one point job payload; returns its JSON-safe result.

    This is the single code path every backend runs — in-process or
    inside a forked or remote pool worker — so the backends cannot
    diverge on *what* a point computes.  Experiment kinds run to
    convergence and report the full estimate document plus per-metric
    histogram digests (the determinism fingerprint); task kinds return
    their payload under ``"task"``.
    """
    kind = job["kind"]
    seed = job["seed"]
    params = dict(job.get("params", {}))
    started = time.perf_counter()
    if kind == "task":
        fn = resolve_callable(job["factory"])
        produced = fn(seed=seed, **job.get("factory_kwargs", {}), **params)
        if not isinstance(produced, dict):
            raise SweepError(
                f"task factory must return a dict, got "
                f"{type(produced).__name__}"
            )
        payload = {"task": produced}
    else:
        # Engine override rides the payload only when non-default (the
        # digest-stability rule in SweepPoint.job_payload).
        engine = job.get("engine")
        if kind == "config":
            from repro.config import build_experiment

            config = apply_params(job["base"], params)
            config["seed"] = seed
            experiment = build_experiment(config, engine=engine)
        else:
            factory = resolve_callable(job["factory"])
            experiment = factory(
                seed=seed, **job.get("factory_kwargs", {}), **params
            )
            if engine is not None and hasattr(experiment, "engine"):
                experiment.engine = engine
        from repro.engine.report import result_to_dict
        from repro.parallel.protocol import payload_digest

        result = experiment.run(max_events=job.get("max_events"))
        payload = result_to_dict(result)
        # Case-study factories return wrapper objects (run() plus wiring)
        # whose inner Experiment carries the tracked statistics.
        stats = getattr(experiment, "stats", None)
        if stats is None:
            stats = getattr(experiment, "experiment").stats
        payload["histogram_digests"] = {
            statistic.name: payload_digest(statistic.histogram.to_payload())
            for statistic in stats
            if statistic.histogram is not None
        }
    payload["point_digest"] = content_digest(job)
    payload["point_wall_time"] = time.perf_counter() - started
    return payload


def payload_problem(job: dict, payload: object) -> Optional[str]:
    """Why a computed payload must be rejected, or None when clean.

    The master-side validation the pool applies before accepting a
    result: integrity (the payload must carry the digest of the job
    that produced it) and shape (an experiment payload without its
    verdict is truncated).  A rejected payload condemns the worker and
    requeues the point — corrupt results are recomputed, never served.
    """
    if not isinstance(payload, dict):
        return f"expected a result object, got {type(payload).__name__}"
    if payload.get("point_digest") != content_digest(job):
        return "point digest mismatch"
    if job["kind"] == "task":
        if "task" not in payload:
            return "task payload missing its 'task' document"
    elif "converged" not in payload or "metrics" not in payload:
        return "experiment payload missing converged/metrics"
    return None


# -- results ------------------------------------------------------------------


@dataclass(frozen=True)
class PointResult:
    """One point's outcome (computed this run or served from cache)."""

    index: int
    name: str
    params: Dict[str, object]
    seed: int
    digest: str
    payload: Dict[str, object]
    cached: bool

    @property
    def converged(self) -> bool:
        return bool(self.payload.get("converged", True))

    @property
    def metrics(self) -> Dict[str, dict]:
        """Per-metric estimate documents (experiment kinds)."""
        return self.payload.get("metrics", {})

    @property
    def task(self) -> Optional[dict]:
        """The task payload (task kinds), else None."""
        return self.payload.get("task")

    @property
    def histogram_digests(self) -> Dict[str, str]:
        return self.payload.get("histogram_digests", {})

    def estimate(self, metric: str) -> dict:
        """One metric's estimate document (KeyError when untracked)."""
        return self.metrics[metric]

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "params": dict(self.params),
            "seed": self.seed,
            "digest": self.digest,
            "cached": self.cached,
            "payload": self.payload,
        }


@dataclass
class SweepResult:
    """Outcome of one sweep run."""

    spec_name: str
    spec_digest: str
    backend: str
    points: List[PointResult]
    wall_time: float = 0.0
    cache_hits: int = 0
    computed: int = 0
    #: Entries that existed but failed verification and were recomputed.
    corrupt_entries: int = 0
    forced: bool = False
    pool_stats: Optional[PoolStats] = None

    @property
    def converged(self) -> bool:
        """True when every point converged."""
        return all(point.converged for point in self.points)

    @property
    def degraded(self) -> bool:
        """True when pool workers were lost and never replaced."""
        return self.pool_stats is not None and self.pool_stats.degraded

    def __getitem__(self, name: str) -> PointResult:
        for point in self.points:
            if point.name == name:
                return point
        raise KeyError(name)

    def digests(self) -> Dict[str, Dict[str, str]]:
        """Point name -> per-metric histogram digests (the determinism
        fingerprint compared across backends, cache states, and runs)."""
        return {
            point.name: point.histogram_digests for point in self.points
        }

    def to_dict(self) -> dict:
        payload = {
            "spec": self.spec_name,
            "spec_digest": self.spec_digest,
            "backend": self.backend,
            "converged": self.converged,
            "wall_time": self.wall_time,
            "cache_hits": self.cache_hits,
            "computed": self.computed,
            "corrupt_entries": self.corrupt_entries,
            "forced": self.forced,
            "degraded": self.degraded,
            "points": [point.to_dict() for point in self.points],
        }
        if self.pool_stats is not None:
            payload["pool"] = {
                "n_workers": self.pool_stats.n_workers,
                "deaths": self.pool_stats.deaths,
                "restarts": self.pool_stats.restarts,
                "joins": self.pool_stats.joins,
                "jobs_requeued": self.pool_stats.jobs_requeued,
                "failure_causes": {
                    str(worker): cause
                    for worker, cause in sorted(
                        self.pool_stats.failure_causes.items()
                    )
                },
            }
        return payload


# -- the runner ---------------------------------------------------------------


class SweepRunner:
    """Execute every point of a spec, cache-aware and pool-scheduled.

    Parameters
    ----------
    spec:
        The :class:`SweepSpec` to execute.
    backend:
        ``"pool"`` (persistent forked workers, default), ``"serial"``
        (one worker stepped in-process), or ``"remote"`` (persistent
        workers hosted by :mod:`repro.parallel.agent` processes over a
        :class:`~repro.parallel.transport.RemoteTransport`; requires
        ``transport``).  Every backend is one
        :meth:`~repro.parallel.pool.WorkerPool.map` computing each point
        through the same :func:`run_point`, so results and digests are
        identical.
    jobs:
        Pool width for the ``pool`` backend (default: up to 4, bounded
        by the machine) and the cap on concurrently bound workers for
        ``remote`` (default 16); ignored by ``serial``.
    cache:
        A :class:`SweepCache`, a directory path, or ``None`` to disable
        caching.
    force:
        Recompute every point even on a cache hit (fresh payloads still
        overwrite their entries).
    respawn / fault_plan / job_timeout:
        Fault tolerance on every backend, passed through to
        :class:`~repro.parallel.pool.WorkerPool`.
    supervision:
        Optional :class:`~repro.faults.SupervisionPolicy`: a fleet
        floor (abort or continue degraded) and a sweep-wide deadline
        (always aborts — a partial sweep is not a meaningful result).
        Passed through to :class:`WorkerPool`.
    transport:
        A started :class:`~repro.parallel.transport.Transport` for the
        ``remote`` backend (the runner never closes it — its owner
        does).
    join_timeout:
        Remote backend: how long an empty fleet waits for an agent to
        (re)join before the sweep gives up.
    tracer:
        Optional :class:`repro.observability.Tracer`.
    on_point:
        Optional callback invoked with each finalized
        :class:`PointResult` (cache hits first, computed points as
        their backend completes them).
    """

    def __init__(
        self,
        spec: SweepSpec,
        backend: str = "pool",
        jobs: Optional[int] = None,
        cache: Union[SweepCache, str, Path, None] = None,
        force: bool = False,
        respawn=None,
        fault_plan=None,
        supervision=None,
        job_timeout: Optional[float] = 600.0,
        transport=None,
        join_timeout: float = 30.0,
        tracer=None,
        on_point: Optional[Callable[[PointResult], None]] = None,
    ):
        if backend not in BACKENDS:
            raise SweepError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if jobs is not None and jobs < 1:
            raise SweepError(f"jobs must be >= 1, got {jobs}")
        if backend == "remote" and transport is None:
            raise SweepError(
                "backend 'remote' needs a transport (a RemoteTransport "
                "listening for repro agents)"
            )
        self.spec = spec
        self.backend = backend
        self.jobs = jobs
        self.cache = (
            cache if isinstance(cache, (SweepCache, type(None)))
            else SweepCache(cache)
        )
        self.force = force
        self.respawn = respawn
        self.fault_plan = fault_plan
        self.supervision = supervision
        self.job_timeout = job_timeout
        self.transport = transport
        self.join_timeout = join_timeout
        self.tracer = tracer
        self.on_point = on_point

    def _default_jobs(self) -> int:
        import os

        return self.jobs or max(1, min(4, (os.cpu_count() or 2) - 1))

    def _trace_point(self, point_result: PointResult) -> None:
        if self.tracer is not None:
            self.tracer.event(
                "point",
                component="sweep",
                point=point_result.name,
                digest=point_result.digest,
                cached=point_result.cached,
                converged=point_result.converged,
            )

    def _finalize(self, point_result: PointResult) -> None:
        self._trace_point(point_result)
        if self.on_point is not None:
            self.on_point(point_result)

    # -- the one compute path ------------------------------------------------

    def _compute(self, jobs: List[tuple]):
        """Every backend: one :meth:`WorkerPool.map`; ``serial`` is one
        worker on the inline transport, ``pool`` the pool's own forked
        workers, ``remote`` the caller's transport."""
        if self.backend == "serial":
            n_workers, transport = 1, _InlineTransport(self.job_timeout)
        elif self.backend == "pool":
            n_workers, transport = self._default_jobs(), None
        else:
            n_workers, transport = self.jobs or 16, self.transport
        pool = WorkerPool(
            run_point,
            n_workers=n_workers,
            master_seed=self.spec.seed,
            job_timeout=self.job_timeout,
            respawn=self.respawn,
            fault_plan=self.fault_plan,
            supervision=self.supervision,
            validate=payload_problem,
            tracer=self.tracer,
            transport=transport,
            join_timeout=self.join_timeout,
        )
        try:
            results = pool.map(jobs)
        finally:
            pool.shutdown()
        return results, pool.stats

    # -- the run -------------------------------------------------------------

    def run(self) -> SweepResult:
        """Execute the sweep; returns results in canonical point order."""
        started = time.perf_counter()
        points = self.spec.points()
        digests = {
            point.index: self.spec.point_digest(point) for point in points
        }
        result = SweepResult(
            spec_name=self.spec.name,
            spec_digest=self.spec.digest(),
            backend=self.backend,
            points=[],
            forced=self.force,
        )

        def finish():
            result.wall_time = time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.counter(
                    "cache_hits", result.cache_hits, component="sweep"
                )
                self.tracer.counter(
                    "points_computed", result.computed, component="sweep"
                )
            return result

        if self.tracer is not None and self.tracer.has_clock:
            with self.tracer.span(
                "run", component="sweep",
                sweep=self.spec.name, points=len(points),
            ):
                return self._run_points(points, digests, result, finish)
        return self._run_points(points, digests, result, finish)

    def _run_points(
        self,
        points: List[SweepPoint],
        digests: Dict[int, str],
        result: SweepResult,
        finish: Callable[[], SweepResult],
    ) -> SweepResult:
        cached: Dict[int, dict] = {}
        corrupt_before = self.cache.corrupt if self.cache else 0
        if self.cache is not None and not self.force:
            for point in points:
                payload = self.cache.get(digests[point.index])
                if payload is not None:
                    cached[point.index] = payload
        jobs = [
            (digests[point.index], point.job_payload(self.spec))
            for point in points
            if point.index not in cached
        ]
        computed, pool_stats = self._compute(jobs) if jobs else ({}, None)
        if self.cache is not None:
            for digest, payload in computed.items():
                self.cache.put(digest, payload)
        for point in points:
            digest = digests[point.index]
            was_cached = point.index in cached
            payload = cached.get(point.index, computed.get(digest))
            if payload is None:  # pragma: no cover - pool invariant guard
                raise SweepError(f"point {point.name} produced no result")
            point_result = PointResult(
                index=point.index,
                name=point.name,
                params=dict(point.params),
                seed=point.seed,
                digest=digest,
                payload=payload,
                cached=was_cached,
            )
            result.points.append(point_result)
            self._finalize(point_result)
        result.cache_hits = len(cached)
        result.computed = len(computed)
        result.corrupt_entries = (
            (self.cache.corrupt - corrupt_before) if self.cache else 0
        )
        result.pool_stats = pool_stats
        return finish()
