"""Statistical acceptance harness: a sweep over closed-form queues.

The single validation path: every sim-vs-theory comparison runs
through one :class:`repro.sweep.SweepSpec` over
:func:`queue_point_factory` and is judged by one rule, CI-aware:

    pass  ⇔  converged  and  |sim − theory| ≤ tol·|theory| + half_width

where ``half_width`` comes from the statistics package's own confidence
interval for that estimate.  A converged-but-noisy run widens its own
budget instead of flaking; a tight run is held to the tolerance.

Grid points are plain dicts (model, rho, cv, k, metric, quantiles), so
they slot directly into a sweep ``grid`` and are content-addressed like
any other point — the acceptance grid caches, parallelizes, and
resumes exactly like a figure sweep.  The tests, CI and ``python -m
repro.validation`` run the two smoke grids from ``_SMOKE_GRIDS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.sweep import SweepResult, SweepRunner, SweepSpec

#: Default per-server service rate; lam is derived as rho * k * mu.
DEFAULT_MU = 20.0

#: The always-on smoke subset: one point per model family, plus the
#: engine axis — the same M/M/1 and M/M/k models re-judged on the
#: vectorized fastpath engine, so tier-1 always cross-checks the two
#: engines against the same closed forms — then M/G/1 with
#: deterministic service and M/G/1-PS at Cv 3.  New points are appended
#: *after* the historical ones: each point's derived seed (and so its
#: digest) is a function of its grid index, and prepending would move
#: every pre-existing result.
SMOKE_POINTS = (
    {"model": "mm1", "rho": 0.5, "metric": "response",
     "quantiles": [0.95, 0.99]},
    {"model": "mmk", "rho": 0.75, "k": 4, "metric": "waiting"},
    {"model": "mg1", "rho": 0.5, "cv": 2.0, "metric": "waiting"},
    {"model": "mm1", "rho": 0.5, "metric": "response",
     "quantiles": [0.95, 0.99], "engine": "fastpath"},
    {"model": "mmk", "rho": 0.75, "k": 4, "metric": "waiting",
     "engine": "fastpath"},
    {"model": "mg1", "rho": 0.5, "cv": 0.0, "metric": "waiting"},
    {"model": "ps", "rho": 0.5, "cv": 3.0, "metric": "response"},
)

#: The full acceptance grid (superset of the smoke subset).
FULL_POINTS = SMOKE_POINTS + (
    {"model": "mm1", "rho": 0.3, "metric": "response",
     "quantiles": [0.95, 0.99]},
    {"model": "mm1", "rho": 0.7, "metric": "response",
     "quantiles": [0.95, 0.99]},
    {"model": "mm1", "rho": 0.9, "metric": "response"},
    {"model": "mmk", "rho": 0.5, "k": 4, "metric": "waiting"},
    {"model": "mmk", "rho": 0.9, "k": 4, "metric": "waiting"},
    {"model": "mg1", "rho": 0.5, "cv": 4.0, "metric": "waiting"},
    {"model": "mg1", "rho": 0.7, "cv": 2.0, "metric": "waiting"},
    {"model": "mg1", "rho": 0.7, "cv": 2.0, "metric": "waiting",
     "engine": "fastpath"},
)

#: Multiserver-job and cloning grids, validated against
#: :mod:`repro.theory.multiserver` (seeded recurrence reference) and
#: :mod:`repro.theory.cloning` (PS closed forms).  Kept as separate
#: tuples — appending them to the historical grids would leave old
#: digests intact but these run as their own spec (and CI smoke job),
#: so tier-1 cost stays flat for everyone not touching gang scheduling.
MULTISERVER_SMOKE_POINTS = (
    {"model": "msj", "rho": 0.5, "n_servers": 4,
     "need_values": [1, 2, 4], "need_weights": [0.5, 0.3, 0.2],
     "metric": "response"},
    {"model": "msj", "rho": 0.7, "n_servers": 4,
     "need_values": [1, 2], "need_weights": [0.5, 0.5],
     "metric": "waiting"},
    {"model": "clone_ps", "rho": 0.5, "backends": 2, "clones": 2,
     "metric": "response"},
)

#: The full multiserver/cloning grid (superset of the smoke subset).
MULTISERVER_FULL_POINTS = MULTISERVER_SMOKE_POINTS + (
    {"model": "msj", "rho": 0.3, "n_servers": 8,
     "need_values": [1, 2, 4], "need_weights": [0.6, 0.3, 0.1],
     "metric": "response"},
    {"model": "msj", "rho": 0.5, "n_servers": 2,
     "need_values": [1, 2], "need_weights": [0.5, 0.5],
     "metric": "response"},
    {"model": "clone_ps", "rho": 0.5, "backends": 4, "clones": 1,
     "metric": "response"},
    {"model": "clone_ps", "rho": 0.7, "backends": 2, "clones": 2,
     "metric": "response"},
    {"model": "clone_ps", "rho": 0.3, "backends": 3, "clones": 3,
     "metric": "response"},
)


class _SmokeGrid(NamedTuple):
    points: Tuple[dict, ...]
    seed: int
    accuracy: float


#: The two always-on smoke grids by sweep name, at the seed and
#: accuracy their committed tables were recorded at.
_SMOKE_GRIDS = {
    "acceptance-theory": _SmokeGrid(SMOKE_POINTS, 20260806, 0.05),
    "acceptance-multiserver": _SmokeGrid(
        MULTISERVER_SMOKE_POINTS, 20260809, 0.05
    ),
}

#: Tolerance (x accuracy target) per model family; on top of these the
#: CI half-width widens each budget (see module docstring).  ``msj`` is
#: judged against a finite Monte-Carlo reference (not an exact closed
#: form), so its budget also absorbs the reference's own noise.
TOLERANCE_FACTORS = {
    "mm1": 3.0, "mmk": 5.0, "mg1": 6.0, "ps": 6.0,
    "msj": 8.0, "clone_ps": 6.0,
}
#: Quantile estimates are noisier than means.
QUANTILE_FACTOR = 4.0

#: Seed / sample count naming the multiserver recurrence reference run;
#: changing either changes every msj ground-truth value bit-for-bit.
MSJ_REFERENCE_SEED = 0xB16
MSJ_REFERENCE_JOBS = 200_000

#: Grid-entry keys forwarded to :func:`theoretical_value` when present;
#: an absent key takes the same default there as in the factory.
_SHAPE_KEYS = ("cv", "k", "mu", "n_servers", "need_values", "need_weights",
               "backends", "clones")


@dataclass(frozen=True)
class ValidationCase:
    """One sim-vs-theory comparison, judged by the CI-aware rule of the
    module docstring.  ``ci`` is the statistics package's own confidence
    interval for the simulated estimate; with none attached, half_width
    is 0 and the rule reduces to a relative-error check."""

    name: str
    simulated: float
    theoretical: float
    tolerance: float
    converged: bool
    ci: Optional[Tuple[float, float]] = None

    @property
    def relative_error(self) -> float:
        """|sim - theory| / |theory|."""
        if self.theoretical == 0:
            return abs(self.simulated)
        return abs(self.simulated - self.theoretical) / abs(self.theoretical)

    @property
    def half_width(self) -> float:
        """Half the CI width (0 when no CI was recorded)."""
        if self.ci is None:
            return 0.0
        return abs(self.ci[1] - self.ci[0]) / 2.0

    @property
    def passed(self) -> bool:
        """True when the simulated estimate is within its CI-aware budget."""
        error = abs(self.simulated - self.theoretical)
        budget = self.tolerance * abs(self.theoretical) + self.half_width
        return self.converged and error <= budget


def _arrival_rate(
    model: str, rho: float, k: int, mu: float, n_servers: int,
    need_values: Sequence[int], need_weights: Optional[Sequence[float]],
    backends: int, clones: int,
) -> float:
    """The Poisson arrival rate that puts one grid point at load ``rho``."""
    if model == "msj":
        from repro.distributions import Choice

        # rho is the offered load on the whole pool: lam E[k] / (N mu).
        return rho * n_servers * mu / Choice(need_values, need_weights).mean()
    if model == "clone_ps":
        # rho is the per-backend load: each of the d replicas offers
        # lam/backends ... lam d / (backends mu) = rho.
        return rho * backends * mu / clones
    return rho * k * mu


def queue_point_factory(
    seed: int,
    model: str = "mm1",
    rho: float = 0.5,
    cv: float = 1.0,
    k: int = 1,
    mu: float = DEFAULT_MU,
    metric: str = "response",
    quantiles: Sequence[float] = (),
    accuracy: float = 0.02,
    warmup_samples: int = 500,
    calibration_samples: int = 3000,
    engine: str = "event",
    n_servers: int = 4,
    need_values: Sequence[int] = (1, 2),
    need_weights: Optional[Sequence[float]] = None,
    backends: int = 2,
    clones: int = 2,
):
    """Build the experiment for one acceptance grid point.

    Module-level and picklable, so pool workers can rebuild it from a
    job payload.  ``model`` selects the queueing family: ``mm1``/``mmk``
    (exponential service on a ``k``-core station), ``mg1`` (service
    fitted to ``cv`` — deterministic, Gamma, or hyperexponential),
    ``ps`` (processor sharing, Cv-insensitive), ``msj`` (gang-scheduled
    multiserver jobs on an ``n_servers`` cluster, server need drawn
    from ``need_values``/``need_weights``), and ``clone_ps``
    (synchronized clone-to-``clones`` over ``backends`` PS servers).
    ``engine`` selects the simulation engine (``"fastpath"`` points are
    what hold the vectorized engine to the same theory-vs-sim
    verdicts; ``msj``/``clone_ps`` never qualify for it).
    """
    from repro.datacenter.balancers import CloningBalancer
    from repro.datacenter.cluster import MultiserverCluster
    from repro.datacenter.processor_sharing import ProcessorSharingServer
    from repro.datacenter.server import Server
    from repro.distributions import Choice, Exponential, fit_mean_cv
    from repro.engine.experiment import Experiment
    from repro.workloads.workload import Workload

    lam = _arrival_rate(
        model, rho, k, mu, n_servers, need_values, need_weights,
        backends, clones,
    )
    if model == "msj":
        workload = Workload(
            model, Exponential(rate=lam), Exponential(rate=mu)
        ).with_servers_needed(Choice(need_values, need_weights))
        station = MultiserverCluster(n_servers)
    elif model == "clone_ps":
        workload = Workload(model, Exponential(rate=lam), Exponential(rate=mu))
        station = CloningBalancer(
            [ProcessorSharingServer(name=f"ps{i}") for i in range(backends)],
            clones=clones,
        )
    else:
        service = (
            Exponential(rate=mu) if model in ("mm1", "mmk")
            else fit_mean_cv(1.0 / mu, cv)
        )
        station = ProcessorSharingServer() if model == "ps" else Server(cores=k)
        workload = Workload(model, Exponential(rate=lam), service)
    experiment = Experiment(
        seed=seed,
        warmup_samples=warmup_samples,
        calibration_samples=calibration_samples,
        engine=engine,
    )
    experiment.add_source(workload, target=station)
    quantile_targets = {float(q): accuracy for q in quantiles} or None
    if metric == "response":
        experiment.track_response_time(
            station, mean_accuracy=accuracy, quantiles=quantile_targets
        )
    else:
        experiment.track_waiting_time(
            station, mean_accuracy=accuracy, quantiles=quantile_targets
        )
    return experiment


@lru_cache(maxsize=None)
def _msj_reference_value(
    lam: float, mu: float, n_servers: int, need_values: tuple,
    need_weights: Optional[tuple], metric: str,
) -> float:
    """Seeded recurrence reference for one msj point (cached: evaluate
    re-asks per statistic and the reference run is the expensive part)."""
    from repro.theory.multiserver import reference_mean

    return reference_mean(
        lam, mu, n_servers, need_values, need_weights, metric=metric,
        seed=MSJ_REFERENCE_SEED, n_jobs=MSJ_REFERENCE_JOBS,
    )


def theoretical_value(
    model: str,
    metric: str,
    rho: float,
    cv: float = 1.0,
    k: int = 1,
    mu: float = DEFAULT_MU,
    quantile: Optional[float] = None,
    n_servers: int = 4,
    need_values: Sequence[int] = (1, 2),
    need_weights: Optional[Sequence[float]] = None,
    backends: int = 2,
    clones: int = 2,
) -> Optional[float]:
    """Ground-truth value for one grid point's statistic, or None when
    no exact form exists (e.g. M/M/k quantiles).  Classic families use
    closed forms; ``msj`` uses the seeded multiserver recurrence
    reference (an independent simulator, not a formula) and
    ``clone_ps`` the PS-cloning closed forms."""
    from repro import theory
    from repro.distributions import fit_mean_cv

    lam = _arrival_rate(
        model, rho, k, mu, n_servers, need_values, need_weights,
        backends, clones,
    )
    if model == "msj":
        if quantile is not None:
            return None
        return _msj_reference_value(
            lam, mu, n_servers, tuple(need_values),
            tuple(need_weights) if need_weights is not None else None,
            metric,
        )
    if model == "clone_ps":
        if quantile is not None or metric != "response":
            return None
        return theory.ps_cloning_response(lam, mu, backends, clones)
    if model == "mm1":
        if quantile is not None:
            if metric != "response":
                return None
            return theory.mm1_quantile_response(lam, mu, quantile)
        if metric == "response":
            return theory.mm1_mean_response(lam, mu)
        return theory.mm1_mean_waiting(lam, mu)
    if quantile is not None:
        return None
    if model == "mmk":
        if metric == "response":
            return theory.mmk_mean_response(lam, mu, k)
        return theory.mmk_mean_waiting(lam, mu, k)
    if model == "mg1":
        service = fit_mean_cv(1.0 / mu, cv)
        if metric == "response":
            return theory.mg1_mean_response(lam, service)
        return theory.mg1_mean_waiting(lam, service)
    if model == "ps":
        # M/G/1-PS mean response E[S]/(1-rho), insensitive to Cv.
        if metric != "response":
            return None
        return (1.0 / mu) / (1.0 - rho)
    raise ValueError(f"unknown model {model!r}")


def point_label(entry: dict) -> str:
    """A human-readable name for one grid entry."""
    model = entry["model"]
    pretty = {
        "mm1": "M/M/1",
        "mmk": f"M/M/{entry.get('k', 1)}",
        "mg1": f"M/G/1 Cv={entry.get('cv', 1.0):g}",
        "ps": f"M/G/1-PS Cv={entry.get('cv', 1.0):g}",
        "msj": (
            f"MSJ N={entry.get('n_servers', 4)} "
            f"k∈{entry.get('need_values', [1, 2])}"
        ),
        "clone_ps": (
            f"PS-clone d={entry.get('clones', 2)}"
            f"/{entry.get('backends', 2)}"
        ),
    }[model]
    label = f"{pretty} rho={entry['rho']:g}"
    engine = entry.get("engine", "event")
    if engine != "event":
        label += f" [{engine}]"
    return label


def build_acceptance_spec(
    points: Iterable[dict] = SMOKE_POINTS,
    accuracy: float = 0.02,
    seed: int = 3001,
    name: str = "acceptance-theory",
) -> SweepSpec:
    """The acceptance grid as an ordinary sweep spec."""
    return SweepSpec(
        name=name,
        kind="factory",
        seed=seed,
        factory=queue_point_factory,
        factory_kwargs={"accuracy": accuracy},
        grid=tuple(dict(entry) for entry in points),
        max_events=30_000_000,
    )


def evaluate(
    result: SweepResult, accuracy: float = 0.02
) -> List[ValidationCase]:
    """Judge every sweep point against theory; one case per statistic."""
    cases: List[ValidationCase] = []
    for point in result.points:
        entry = point.params
        model = entry["model"]
        metric = entry.get("metric", "response")
        estimate = point.estimate(f"{metric}_time")
        label = point_label(entry)
        shape = {key: entry[key] for key in _SHAPE_KEYS if key in entry}
        mean_ci = estimate.get("mean_ci")
        cases.append(
            ValidationCase(
                f"{label} mean {metric}",
                estimate["mean"],
                theoretical_value(model, metric, entry["rho"], **shape),
                tolerance=TOLERANCE_FACTORS[model] * accuracy,
                converged=point.converged,
                ci=tuple(mean_ci) if mean_ci else None,
            )
        )
        for q in entry.get("quantiles", ()):
            theory_q = theoretical_value(
                model, metric, entry["rho"], quantile=q, **shape
            )
            if theory_q is None:
                continue
            q_ci = estimate["quantile_ci"].get(str(q))
            cases.append(
                ValidationCase(
                    f"{label} p{int(round(q * 100))} {metric}",
                    estimate["quantiles"][str(q)],
                    theory_q,
                    tolerance=QUANTILE_FACTOR * accuracy,
                    converged=point.converged,
                    ci=tuple(q_ci) if q_ci else None,
                )
            )
    return cases


def run_acceptance(
    points: Iterable[dict] = SMOKE_POINTS,
    accuracy: float = 0.02,
    seed: int = 3001,
    backend: str = "serial",
    jobs: Optional[int] = None,
    name: str = "acceptance-theory",
) -> Tuple[SweepResult, List[ValidationCase]]:
    """Run the acceptance grid; returns (sweep result, judged cases)."""
    spec = build_acceptance_spec(points, accuracy=accuracy, seed=seed, name=name)
    result = SweepRunner(spec, backend=backend, jobs=jobs).run()
    return result, evaluate(result, accuracy=accuracy)


def _run_smoke(name: str) -> Tuple[SweepResult, List[ValidationCase]]:
    """Run one of ``_SMOKE_GRIDS`` serially at its recorded seed."""
    grid = _SMOKE_GRIDS[name]
    return run_acceptance(
        grid.points, accuracy=grid.accuracy, seed=grid.seed, name=name
    )


def format_acceptance_table(cases: Iterable[ValidationCase]) -> str:
    """The acceptance pass table (published as a CI artifact)."""
    cases = list(cases)
    width = max(len(case.name) for case in cases) + 2
    lines = [
        f"{'case'.ljust(width)}{'simulated':>12} {'theory':>12} "
        f"{'error':>8} {'ci half-width':>14}  verdict"
    ]
    for case in cases:
        half = f"{case.half_width:.3g}" if case.ci else "-"
        verdict = "PASS" if case.passed else "FAIL"
        lines.append(
            f"{case.name.ljust(width)}{case.simulated:>12.6g} "
            f"{case.theoretical:>12.6g} {case.relative_error:>7.2%} "
            f"{half:>14}  {verdict}"
        )
    failed = sum(not case.passed for case in cases)
    lines.append(
        f"\n{len(cases) - failed}/{len(cases)} cases passed"
        + (f" ({failed} FAILED)" if failed else "")
    )
    return "\n".join(lines) + "\n"


def write_acceptance_table(
    cases: Iterable[ValidationCase], path: str | Path
) -> Path:
    """Write the pass table to ``path`` (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(format_acceptance_table(cases))
    return path
