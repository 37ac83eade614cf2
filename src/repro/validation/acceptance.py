"""Statistical acceptance harness: a sweep over closed-form queues.

The single validation path: every sim-vs-theory comparison runs
through one :class:`repro.sweep.SweepSpec` over
:func:`queue_point_factory` and is judged by one rule, CI-aware:

    pass  ⇔  converged  and  |sim − theory| ≤ tol·|theory| + half_width

where ``half_width`` comes from the statistics package's own confidence
interval for that estimate.  A converged-but-noisy run widens its own
budget instead of flaking; a tight run is held to the tolerance.

Each model family is one ``_Family`` record in ``_FAMILIES``: it
builds the station, names every (statistic, ground truth) pair a point
is judged on, with the truths from :mod:`repro.theory`, and labels the
rows; nothing else branches on the model.  Grid points are plain dicts
(model, rho, cv, k, metric, quantiles, ...), so they slot directly into
a sweep ``grid`` and are content-addressed like any other point — the
acceptance grid caches, parallelizes, and resumes exactly like a
figure sweep.  The tests, CI and ``python -m
repro.validation`` run the two smoke grids from ``_SMOKE_GRIDS``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter
from pathlib import Path
from typing import (
    Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.sweep import SweepResult, SweepRunner, SweepSpec

#: Default per-server service rate; lam is derived as rho * k * mu.
DEFAULT_MU = 20.0

#: The always-on smoke subset: one point per model family, plus the
#: engine axis — the same M/M/1 and M/M/k models re-judged on the
#: vectorized fastpath engine, so tier-1 always cross-checks the two
#: engines against the same closed forms — then M/G/1 with
#: deterministic service, M/G/1-PS at Cv 3, and the priority, closed,
#: Jackson, SJF, SRPT and LIFO families.  New points are appended
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
    {"model": "priority", "rho": 0.6, "metric": "waiting"},
    {"model": "closed", "mu": 10.0, "metric": "response"},
    {"model": "jackson", "rho": 0.64, "metric": "response"},
    {"model": "sjf", "rho": 0.7, "cv": 3.0, "metric": "response"},
    {"model": "srpt", "rho": 0.7, "cv": 3.0, "metric": "response"},
    {"model": "lifo", "rho": 0.7, "cv": 3.0, "metric": "response"},
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
    {"model": "priority", "rho": 0.8, "metric": "waiting"},
    {"model": "closed", "mu": 5.0, "metric": "response"},
    {"model": "jackson", "rho": 0.85, "metric": "response"},
    {"model": "sjf", "rho": 0.5, "cv": 2.0, "metric": "response"},
    {"model": "srpt", "rho": 0.5, "cv": 2.0, "metric": "response"},
    {"model": "lifo", "rho": 0.5, "cv": 2.0, "metric": "response"},
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
    {"model": "clone_ps", "rho": 0.5, "backends": 3, "clones": 3,
     "metric": "response"},
    {"model": "clone_ps", "rho": 0.25, "backends": 2, "clones": 1,
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

#: Quantile estimates are noisier than means: a quantile case's budget
#: is this x the accuracy target (a mean case's is its family's
#: ``tolerance``); on top of either the CI half-width widens the budget
#: (see module docstring).
QUANTILE_FACTOR = 4.0

#: Seed / sample count naming the multiserver recurrence reference run;
#: changing either changes every msj ground-truth value bit-for-bit.
MSJ_REFERENCE_SEED = 0xB16
MSJ_REFERENCE_JOBS = 200_000


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


class _Point(NamedTuple):
    """One grid entry with every default of :func:`queue_point_factory`
    filled in: the one view the factory, the ground truths and the row
    labels read."""

    model: str
    rho: float
    cv: float
    k: int
    mu: float
    metric: str
    quantiles: Sequence[float]
    engine: str
    n_servers: int
    need_values: Sequence[int]
    need_weights: Optional[Sequence[float]]
    backends: int
    clones: int

    @classmethod
    def of(cls, entry: dict) -> "_Point":
        bound = inspect.signature(queue_point_factory).bind(0, **entry)
        bound.apply_defaults()
        return cls(**{field: bound.arguments[field] for field in cls._fields})


#: One judged statistic of a point: its case-name suffix, the tracked
#: metric it reads, the quantile (None for the mean) and the truth.
_Truth = Tuple[str, str, Optional[float], float]


class _Family(NamedTuple):
    """One model family of the grid.

    ``rate`` is the rate jobs enter at: the Poisson rate that puts a
    point at load ``rho`` (for ``closed``, the throughput exact MVA
    gives); ``build(experiment, point, rate, accuracy)`` adds the
    station, its load and its tracked metrics; ``truths(point, rate)``
    names every (statistic, ground truth) pair the point is judged on;
    ``label(point)`` names its rows.  A mean case's budget is
    ``tolerance`` x the accuracy target, a quantile case's
    :data:`QUANTILE_FACTOR` x it.
    """

    label: Callable[[_Point], str]
    metrics: Tuple[str, ...]
    tolerance: float
    rate: Callable[[_Point], float]
    build: Callable
    truths: Callable[[_Point, float], List[_Truth]]


def _statistic(point: _Point, part: str = "") -> str:
    """The metric ``point`` tracks; ``part`` names a class or station."""
    return f"{point.metric}_time" + (f"[{part}]" if part else "")


def _case(point: _Point, value: float, quantile: Optional[float] = None,
          part: str = "") -> _Truth:
    """The truth ``value`` of one statistic of ``point``'s metric."""
    which = "mean" if quantile is None else f"p{int(round(quantile * 100))}"
    name = (f"{part} " if part else "") + f"{which} {point.metric}"
    return name, _statistic(point, part), quantile, value


def _track(experiment, point: _Point, accuracy: float, part: str = ""):
    """Track ``point``'s metric (per ``part``); returns its recorder."""
    name = _statistic(point, part)
    quantiles = {float(q): accuracy for q in point.quantiles} or None
    experiment.track(name, mean_accuracy=accuracy, quantiles=quantiles)
    return experiment.stats.recorder(name)


def _loaded(point: _Point) -> float:
    return point.rho * point.k * point.mu


def _exponential(point: _Point):
    from repro.distributions import Exponential

    return Exponential(rate=point.mu)


def _fitted(point: _Point):
    from repro.distributions import fit_mean_cv

    return fit_mean_cv(1.0 / point.mu, point.cv)


def _one_station(
    station: Callable, service: Callable = _fitted,
    needs: Optional[Callable] = None,
) -> Callable:
    """``build`` for one station fed by a Poisson stream; ``needs``
    gives each job's server count (multiserver jobs)."""

    def build(experiment, point: _Point, rate: float, accuracy: float):
        from repro.distributions import Exponential
        from repro.workloads.workload import Workload

        arrivals = Exponential(rate=rate)
        workload = Workload(point.model, arrivals, service(point))
        if needs is not None:
            workload = workload.with_servers_needed(needs(point))
        target = station(point)
        experiment.add_source(workload, target=target)
        quantiles = {float(q): accuracy for q in point.quantiles} or None
        track = (
            experiment.track_response_time if point.metric == "response"
            else experiment.track_waiting_time
        )
        track(target, mean_accuracy=accuracy, quantiles=quantiles)

    return build


def _server(discipline: Optional[str] = None) -> Callable:
    def station(point: _Point):
        from repro.datacenter import disciplines
        from repro.datacenter.server import Server

        if discipline is None:
            return Server(cores=point.k)
        return Server(cores=1, discipline=getattr(disciplines, discipline)())

    return station


def _ps_server(point: _Point):
    from repro.datacenter.processor_sharing import ProcessorSharingServer

    return ProcessorSharingServer()


def _srpt_server(point: _Point):
    from repro.datacenter.srpt import SRPTServer

    return SRPTServer()


def _mm1_truths(point: _Point, rate: float) -> List[_Truth]:
    from repro import theory

    if point.metric == "waiting":
        return [_case(point, theory.mm1_mean_waiting(rate, point.mu))]
    return [_case(point, theory.mm1_mean_response(rate, point.mu))] + [
        _case(point, theory.mm1_quantile_response(rate, point.mu, q), q)
        for q in point.quantiles
    ]


def _mmk_truths(point: _Point, rate: float) -> List[_Truth]:
    from repro import theory

    form = (
        theory.mmk_mean_response if point.metric == "response"
        else theory.mmk_mean_waiting
    )
    return [_case(point, form(rate, point.mu, point.k))]


def _pk_truths(point: _Point, rate: float) -> List[_Truth]:
    """Pollaczek–Khinchine; non-preemptive LIFO has the same mean."""
    from repro import theory

    form = (
        theory.mg1_mean_response if point.metric == "response"
        else theory.mg1_mean_waiting
    )
    return [_case(point, form(rate, _fitted(point)))]


def _ps_truths(point: _Point, rate: float) -> List[_Truth]:
    """M/G/1-PS is insensitive to the service shape: the M/M/1 mean."""
    from repro import theory

    return [_case(point, theory.mm1_mean_response(rate, point.mu))]


def _form_truths(name: str) -> Callable:
    """Truth from the ``repro.theory`` form ``name(rate, service)``."""

    def truths(point: _Point, rate: float) -> List[_Truth]:
        from repro import theory

        return [_case(point, getattr(theory, name)(rate, _fitted(point)))]

    return truths


# -- multiserver jobs and cloning ---------------------------------------------


def _msj_needs(point: _Point):
    from repro.distributions import Choice

    return Choice(point.need_values, point.need_weights)


def _msj_rate(point: _Point) -> float:
    # rho is the offered load on the whole pool: lam E[k] / (N mu).
    return point.rho * point.n_servers * point.mu / _msj_needs(point).mean()


def _msj_cluster(point: _Point):
    from repro.datacenter.cluster import MultiserverCluster

    return MultiserverCluster(point.n_servers)


@lru_cache(maxsize=None)
def _msj_reference_value(
    lam: float, mu: float, n_servers: int, need_values: tuple,
    need_weights: Optional[tuple], metric: str,
) -> float:
    """Seeded recurrence reference for one msj point (cached: the
    reference run is the expensive part)."""
    from repro.theory.multiserver import reference_mean

    return reference_mean(
        lam, mu, n_servers, need_values, need_weights, metric=metric,
        seed=MSJ_REFERENCE_SEED, n_jobs=MSJ_REFERENCE_JOBS,
    )


def _msj_truths(point: _Point, rate: float) -> List[_Truth]:
    weights = point.need_weights
    return [_case(point, _msj_reference_value(
        rate, point.mu, point.n_servers, tuple(point.need_values),
        tuple(weights) if weights is not None else None, point.metric,
    ))]


def _clone_rate(point: _Point) -> float:
    # rho is the per-backend load: each of the d replicas offers
    # lam/backends ... lam d / (backends mu) = rho.
    return point.rho * point.backends * point.mu / point.clones


def _cloning_balancer(point: _Point):
    from repro.datacenter.balancers import CloningBalancer
    from repro.datacenter.processor_sharing import ProcessorSharingServer

    return CloningBalancer(
        [ProcessorSharingServer(name=f"ps{i}")
         for i in range(point.backends)],
        clones=point.clones,
    )


def _clone_truths(point: _Point, rate: float) -> List[_Truth]:
    from repro import theory

    return [_case(point, theory.ps_cloning_response(
        rate, point.mu, point.backends, point.clones
    ))]


# -- priority classes ---------------------------------------------------------

#: The ``priority`` family's classes, highest first: (name, mean
#: service), exponential, equal weights.
_PRIORITY_CLASSES = (("query", 0.04), ("batch", 0.08))


def _priority_rate(point: _Point) -> float:
    means = [mean for _, mean in _PRIORITY_CLASSES]
    return point.rho * len(means) / sum(means)


def _priority_classes():
    from repro.datacenter.multiclass import JobClass
    from repro.distributions import Exponential

    return [
        JobClass(name, priority=level, service=Exponential.from_mean(mean))
        for level, (name, mean) in enumerate(_PRIORITY_CLASSES)
    ]


def _priority_build(experiment, point: _Point, rate: float, accuracy: float):
    from repro.datacenter.multiclass import (
        MultiClassSource, PriorityQueue, job_class_of,
    )
    from repro.datacenter.server import Server
    from repro.distributions import Exponential

    classes = _priority_classes()
    server = Server(cores=1, discipline=PriorityQueue())
    source = MultiClassSource(Exponential(rate=rate), classes, server)
    experiment.bind(source)
    experiment.sources.append(source)
    record = {c.name: _track(experiment, point, accuracy, c.name)
              for c in classes}
    value = attrgetter(f"{point.metric}_time")
    server.on_complete(
        lambda job, _server: record[job_class_of(job).name](value(job))
    )


def _priority_truths(point: _Point, rate: float) -> List[_Truth]:
    from repro import theory

    classes = _priority_classes()
    share = rate / len(classes)
    waits = theory.cobham_waiting_times(
        [share] * len(classes), [c.service for c in classes]
    )
    return [
        _case(point, wait + (c.service.mean()
                             if point.metric == "response" else 0.0),
              part=c.name)
        for c, wait in zip(classes, waits)
    ]


# -- closed loop --------------------------------------------------------------

#: The ``closed`` family: N clients with exponential think time Z
#: cycling through one exponential station of mean 1/mu.
_CLOSED_CLIENTS = 8
_CLOSED_THINK = 1.0


def _closed_build(experiment, point: _Point, rate: float, accuracy: float):
    from repro.datacenter.closedloop import ClosedLoopClients
    from repro.datacenter.server import Server
    from repro.distributions import Exponential

    server = Server(cores=1)
    experiment.bind(ClosedLoopClients(
        _CLOSED_CLIENTS, Exponential.from_mean(_CLOSED_THINK),
        _exponential(point), server,
    ))
    experiment.track_response_time(server, mean_accuracy=accuracy)


def _closed_rate(point: _Point) -> float:
    from repro import theory

    return theory.mva_throughput(
        _CLOSED_CLIENTS, [1.0 / point.mu], _CLOSED_THINK
    )


def _closed_truths(point: _Point, rate: float) -> List[_Truth]:
    from repro import theory

    return [_case(point, theory.interactive_response_time(
        _CLOSED_CLIENTS, rate, _CLOSED_THINK
    ))]


# -- open Jackson network -----------------------------------------------------

#: The ``jackson`` family: an open tandem of exponential M/M/1 stations,
#: (name, mean service), entered at the first.
_JACKSON_STATIONS = (("front", 0.05), ("back", 0.08))
_JACKSON_ROUTING = ((0.0, 1.0), (0.0, 0.0))


def _jackson_rate(point: _Point) -> float:
    # rho is the load one visit per job puts on the slowest station (in
    # the tandem, its load).  It is not derived through the traffic
    # equations, so a fault there cannot move the simulated load too.
    return point.rho / max(mean for _, mean in _JACKSON_STATIONS)


def _time_visits(station, record: Callable[[float], None]) -> None:
    """Record each visit's time at ``station``, arrival to completion."""
    arrived = {}

    def arrive(job, server):
        arrived[job.job_id] = server.sim.now

    def complete(job, server):
        record(server.sim.now - arrived.pop(job.job_id))

    station.on_arrival(arrive)
    station.on_complete(complete)


def _jackson_build(experiment, point: _Point, rate: float, accuracy: float):
    from repro.datacenter.network import RoutingNetwork
    from repro.datacenter.server import Server
    from repro.distributions import Deterministic, Exponential
    from repro.workloads.workload import Workload

    stations = []
    for name, mean in _JACKSON_STATIONS:
        station = Server(
            service_distribution=Exponential.from_mean(mean), name=name
        )
        # Timed before the network's routing hook goes on, so a visit
        # is recorded before the job moves on (or back to this station).
        _time_visits(station, _track(experiment, point, accuracy, name))
        stations.append(station)
    network = RoutingNetwork(stations, _JACKSON_ROUTING)
    experiment.add_source(
        Workload("ext", Exponential(rate=rate), Deterministic(0.0)),
        target=network, draw_sizes=False,
    )


def _jackson_truths(point: _Point, rate: float) -> List[_Truth]:
    from repro import theory

    gamma = [rate] + [0.0] * (len(_JACKSON_STATIONS) - 1)
    return [
        _case(point, theory.mm1_mean_response(station_rate, 1.0 / mean),
              part=name)
        for station_rate, (name, mean) in zip(
            theory.traffic_equations(gamma, _JACKSON_ROUTING),
            _JACKSON_STATIONS,
        )
    ]


_BOTH = ("response", "waiting")
_RESPONSE = ("response",)

#: Every model family by grid ``model`` name.  ``msj`` is judged
#: against a finite Monte-Carlo reference (not an exact closed form),
#: so its budget also absorbs the reference's own noise.
_FAMILIES = {
    "mm1": _Family(
        lambda p: f"M/M/1 rho={p.rho:g}", _BOTH, 3.0, _loaded,
        _one_station(_server(), _exponential), _mm1_truths,
    ),
    "mmk": _Family(
        lambda p: f"M/M/{p.k} rho={p.rho:g}", _BOTH, 5.0, _loaded,
        _one_station(_server(), _exponential), _mmk_truths,
    ),
    "mg1": _Family(
        lambda p: f"M/G/1 Cv={p.cv:g} rho={p.rho:g}", _BOTH, 6.0, _loaded,
        _one_station(_server()), _pk_truths,
    ),
    "ps": _Family(
        lambda p: f"M/G/1-PS Cv={p.cv:g} rho={p.rho:g}", _RESPONSE, 6.0,
        _loaded, _one_station(_ps_server), _ps_truths,
    ),
    "msj": _Family(
        lambda p: f"MSJ N={p.n_servers} k∈{list(p.need_values)} rho={p.rho:g}",
        _BOTH, 8.0, _msj_rate,
        _one_station(_msj_cluster, _exponential, _msj_needs),
        _msj_truths,
    ),
    "clone_ps": _Family(
        lambda p: f"PS-clone d={p.clones}/{p.backends} rho={p.rho:g}",
        _RESPONSE, 6.0, _clone_rate,
        _one_station(_cloning_balancer, _exponential), _clone_truths,
    ),
    "priority": _Family(
        lambda p: f"Priority rho={p.rho:g}", _BOTH, 3.0,
        _priority_rate, _priority_build, _priority_truths,
    ),
    "closed": _Family(
        lambda p: (f"Closed N={_CLOSED_CLIENTS} Z={_CLOSED_THINK:g} "
                   f"S={1.0 / p.mu:g}"),
        _RESPONSE, 1.0, _closed_rate, _closed_build, _closed_truths,
    ),
    "jackson": _Family(
        lambda p: f"Jackson rho={p.rho:g}", _RESPONSE, 2.4,
        _jackson_rate, _jackson_build, _jackson_truths,
    ),
    "sjf": _Family(
        lambda p: f"M/G/1-SJF Cv={p.cv:g} rho={p.rho:g}", _RESPONSE, 3.0,
        _loaded, _one_station(_server("SJFQueue")),
        _form_truths("mg1_sjf_response"),
    ),
    "srpt": _Family(
        lambda p: f"M/G/1-SRPT Cv={p.cv:g} rho={p.rho:g}", _RESPONSE, 3.0,
        _loaded, _one_station(_srpt_server),
        _form_truths("mg1_srpt_response"),
    ),
    "lifo": _Family(
        lambda p: f"M/G/1-LIFO Cv={p.cv:g} rho={p.rho:g}", _BOTH, 3.0,
        _loaded, _one_station(_server("LIFOQueue")), _pk_truths,
    ),
}


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
    job payload.  ``model`` names the family in ``_FAMILIES``:
    ``mm1``/``mmk`` (exponential service on a ``k``-core station),
    ``mg1`` (service fitted to ``cv`` — deterministic, Gamma, or
    hyperexponential), ``ps`` (processor sharing, Cv-insensitive),
    ``sjf``/``srpt``/``lifo`` (the fitted service under those
    disciplines), ``msj`` (gang-scheduled multiserver jobs on an
    ``n_servers`` cluster, server need drawn from
    ``need_values``/``need_weights``), ``clone_ps`` (synchronized
    clone-to-``clones`` over ``backends`` PS servers), and three whose
    shape is fixed in the family: ``priority`` (two classes under
    head-of-line priorities), ``closed`` (think-time clients around
    one station of mean service ``1/mu``) and ``jackson`` (an open
    tandem).  ``engine`` selects the simulation engine (``"fastpath"``
    points are what hold the vectorized engine to the same
    theory-vs-sim verdicts; only one-station FCFS families qualify).
    """
    from repro.engine.experiment import Experiment

    point = _Point(
        model, rho, cv, k, mu, metric, quantiles, engine, n_servers,
        need_values, need_weights, backends, clones,
    )
    family = _FAMILIES.get(model)
    if family is None:
        raise ValueError(f"unknown model {model!r}")
    if metric not in family.metrics:
        raise ValueError(
            f"{model} is judged on {' or '.join(family.metrics)} time, "
            f"not {metric!r}"
        )
    experiment = Experiment(
        seed=seed,
        warmup_samples=warmup_samples,
        calibration_samples=calibration_samples,
        engine=engine,
    )
    family.build(experiment, point, family.rate(point), accuracy)
    return experiment


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


def point_label(entry: dict) -> str:
    """A human-readable name for one grid entry."""
    point = _Point.of(entry)
    label = _FAMILIES[point.model].label(point)
    if point.engine != "event":
        label += f" [{point.engine}]"
    return label


def evaluate(
    result: SweepResult, accuracy: float = 0.02
) -> List[ValidationCase]:
    """Judge every sweep point against theory; one case per statistic."""
    cases: List[ValidationCase] = []
    for sweep_point in result.points:
        point = _Point.of(sweep_point.params)
        family = _FAMILIES[point.model]
        label = point_label(sweep_point.params)
        for suffix, statistic, quantile, truth in family.truths(
            point, family.rate(point)
        ):
            estimate = sweep_point.estimate(statistic)
            if quantile is None:
                simulated, ci = estimate["mean"], estimate.get("mean_ci")
                tolerance = family.tolerance * accuracy
            else:
                simulated = estimate["quantiles"][str(quantile)]
                ci = estimate["quantile_ci"].get(str(quantile))
                tolerance = QUANTILE_FACTOR * accuracy
            cases.append(
                ValidationCase(
                    f"{label} {suffix}", simulated, truth,
                    tolerance=tolerance,
                    converged=sweep_point.converged,
                    ci=tuple(ci) if ci else None,
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
