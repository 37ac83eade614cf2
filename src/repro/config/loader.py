"""JSON experiment configuration -> wired Experiment.

Example document::

    {
      "seed": 42,
      "warmup_samples": 1000,
      "calibration_samples": 5000,
      "workload": {"name": "web", "load": 0.6},
      "servers": {"count": 4, "cores": 2, "discipline": "fcfs"},
      "balancer": "jsq",
      "metrics": [
        {"kind": "response_time", "mean_accuracy": 0.05,
         "quantiles": {"0.95": 0.05}},
        {"kind": "waiting_time", "mean_accuracy": 0.1}
      ]
    }

Workloads may alternatively be declared from explicit distributions::

    "workload": {
      "interarrival": {"type": "exponential", "mean": 0.1},
      "service": {"type": "hyperexponential", "mean": 0.05, "cv": 3.0}
    }

A document is input from outside the program.  Every section is checked
against its key table by :func:`repro.shape.checked` before anything is
built from it — an unknown key or a value of the wrong type is refused,
naming the key path — and what a constructor then refuses surfaces as a
:class:`ConfigError` naming the section: never a raw ``TypeError``,
never a silently ignored key.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

from repro.core.statistic import StatisticError
from repro.datacenter.balancers import (
    CloningBalancer,
    JoinShortestQueue,
    RandomBalancer,
    RoundRobinBalancer,
    SpeculativeRetryBalancer,
)
from repro.datacenter.cluster import ClusterError, MultiserverCluster
from repro.datacenter.disciplines import FCFSQueue, LIFOQueue, SJFQueue
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.server import Server, ServerError
from repro.distributions import (
    BoundedPareto,
    Choice,
    Deterministic,
    EmpiricalDistribution,
    Erlang,
    Exponential,
    Gamma,
    HyperExponential,
    LogNormal,
    Pareto,
    Uniform,
    Weibull,
    fit_mean_cv,
)
from repro.engine.events import SimulationError
from repro.engine.experiment import Experiment
from repro.shape import checked
from repro.workloads import by_name
from repro.workloads.workload import Workload


class ConfigError(ValueError):
    """Raised for malformed configuration documents."""


_BALANCERS = {
    "random": RandomBalancer,
    "round_robin": RoundRobinBalancer,
    "jsq": JoinShortestQueue,
}

_DISCIPLINES = {
    "fcfs": FCFSQueue,
    "lifo": LIFOQueue,
    "sjf": SJFQueue,
}

# Key -> the type hint its value must fit (repro.shape), one table per
# section.  A key outside its section's table is refused: a misspelt key
# that silently runs the default model is worse than an error.
_TOP_KEYS = {
    "seed": int, "warmup_samples": int, "calibration_samples": int,
    "confidence": float, "max_events": int, "prefetch": bool,
    "sanitize": bool, "engine": str, "workload": dict, "servers": dict,
    "cluster": dict, "balancer": Union[str, dict], "metrics": List[dict],
}
_WORKLOAD_KEYS = {
    "name": str, "empirical": bool, "label": str, "interarrival": dict,
    "service": dict, "servers_needed": dict, "cores_for_load": int,
    "load": float, "qps": float, "service_scale": float,
}
_SERVER_KEYS = {
    "count": int, "cores": int, "speed": float, "model": str,
    "discipline": str,
}
_CLUSTER_KEYS = {"servers": int, "speed": float, "backfill": bool}
_BALANCER_KEYS = {
    "policy": str, "clones": int, "synchronized": bool,
    "threshold": float, "max_retries": int,
}
_METRIC_KEYS = {
    "kind": str, "name": str, "mean_accuracy": Optional[float],
    "quantiles": Dict[str, float],
}

#: Distribution type -> its accepted forms, each the parameter keys (in
#: the constructor's positional order) and the constructor they feed.
_DISTRIBUTIONS = {
    "exponential": (
        (("mean",), Exponential.from_mean), (("rate",), Exponential),
    ),
    "deterministic": ((("value",), Deterministic),),
    "uniform": ((("low", "high"), Uniform),),
    "gamma": (
        (("mean", "cv"), Gamma.from_mean_cv), (("shape", "scale"), Gamma),
    ),
    "erlang": ((("k", "rate"), Erlang),),
    "lognormal": (
        (("mean", "cv"), LogNormal.from_mean_cv), (("mu", "sigma"), LogNormal),
    ),
    "weibull": (
        (("mean", "cv"), Weibull.from_mean_cv), (("shape", "scale"), Weibull),
    ),
    "pareto": ((("alpha", "xm"), Pareto),),
    "bounded_pareto": ((("alpha", "low", "high"), BoundedPareto),),
    "hyperexponential": (
        (("mean", "cv"), HyperExponential.from_mean_cv),
        (("p1", "rate1", "rate2"), HyperExponential),
    ),
    "fit": ((("mean", "cv"), fit_mean_cv),),
    "choice": ((("values", "weights"), Choice), (("values",), Choice)),
    "empirical": ((("path",), EmpiricalDistribution.load),),
}
#: Distribution parameters that are not plain numbers.
_PARAM_TYPES = {"values": List[float], "weights": List[float], "path": str}

#: What a constructor raises for a value the document supplied.
_REFUSALS = (
    ValueError, ArithmeticError, OSError, StatisticError, ClusterError,
    ServerError, SimulationError,
)

@contextmanager
def _building(where: str):
    """A constructor's refusal becomes a ConfigError naming the section."""
    try:
        yield
    except ConfigError:
        raise
    except _REFUSALS as error:
        raise ConfigError(f"{where} does not build: {error}") from error


def load_config(path: Union[str, Path]) -> dict:
    """Read a JSON config file."""
    path = Path(path)
    try:
        with path.open() as handle:
            config = json.load(handle)
    except json.JSONDecodeError as error:
        raise ConfigError(f"{path}: invalid JSON: {error}") from error
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: must hold an object, got {config!r}")
    return config


def build_distribution(spec: dict):
    """Construct a distribution from a ``{"type": ..., ...}`` spec."""
    return _distribution(spec, "distribution")


def _distribution(spec, where: str):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError(
            f"{where}: distribution spec needs a 'type': {spec!r}"
        )
    kind = spec["type"].lower() if isinstance(spec["type"], str) else None
    if kind not in _DISTRIBUTIONS:
        raise ConfigError(
            f"{where}.type: unknown distribution type {spec['type']!r}"
        )
    forms = _DISTRIBUTIONS[kind]
    checked(spec, {"type": str, **{
        key: _PARAM_TYPES.get(key, float) for keys, _ in forms for key in keys
    }}, where, ConfigError)
    for keys, construct in forms:
        if set(keys) == set(spec) - {"type"}:
            with _building(where):
                return construct(*(spec[key] for key in keys))
    takes = " or ".join("+".join(keys) for keys, _ in forms)
    raise ConfigError(
        f"{where}: a {kind} distribution takes {takes}, "
        f"got {'+'.join(sorted(set(spec) - {'type'})) or 'nothing'}"
    )


def build_workload(spec: dict) -> Workload:
    """Construct a workload from either a shipped name or explicit specs."""
    checked(spec, _WORKLOAD_KEYS, "workload", ConfigError)
    with _building("workload"):
        if "name" in spec:
            workload = by_name(
                spec["name"], empirical=spec.get("empirical", False)
            )
        elif "interarrival" in spec and "service" in spec:
            workload = Workload(
                name=spec.get("label", "configured"),
                interarrival=_distribution(
                    spec["interarrival"], "workload.interarrival"
                ),
                service=_distribution(spec["service"], "workload.service"),
            )
        else:
            raise ConfigError(
                "workload: needs 'name' or 'interarrival'+'service'"
            )
        if "servers_needed" in spec:
            # Applied before load scaling so at_load accounts for E[k]
            # server-seconds per job.
            workload = workload.with_servers_needed(_distribution(
                spec["servers_needed"], "workload.servers_needed"
            ))
        cores = spec.get("cores_for_load", 1)
        if "load" in spec:
            workload = workload.at_load(spec["load"], cores=cores)
        if "qps" in spec:
            workload = workload.at_qps(spec["qps"])
        if "service_scale" in spec:
            workload = workload.scale_service(spec["service_scale"])
    return workload


class _Pool(NamedTuple):
    """The capacity a document offers its workload."""

    cores: int  # what workload.load is scaled against
    speed: float
    clones: int  # replicas a cloning balancer mints per job, else 1
    clustered: bool  # a gang-scheduled 'cluster', not 'servers'


def _pool(config: dict) -> _Pool:
    """Check the capacity sections of ``config`` and sum them up.

    The one place that knows the pool is ``cluster.servers``, or else
    ``servers.count x servers.cores``: :func:`build_experiment` scales
    the offered load by it and the model lint judges stability by it.
    """
    balancer = config.get("balancer")
    clones = 1
    if isinstance(balancer, dict):
        checked(balancer, _BALANCER_KEYS, "balancer", ConfigError)
        if balancer.get("policy", "").lower() == "cloning":
            clones = balancer.get("clones", 2)
    cluster = config.get("cluster")
    if cluster is None:
        servers = checked(
            config.get("servers", {}), _SERVER_KEYS, "servers", ConfigError
        )
        cores = servers.get("count", 1) * servers.get("cores", 1)
        return _Pool(cores, servers.get("speed", 1.0), clones, False)
    # Gang-scheduled multiserver-job cluster replaces the classic
    # server pool + balancer entry point.
    checked(cluster, _CLUSTER_KEYS, "cluster", ConfigError)
    if "servers" in config or "balancer" in config:
        raise ConfigError(
            "'cluster' replaces the 'servers'/'balancer' sections; "
            "remove them"
        )
    return _Pool(
        cluster.get("servers", 1), cluster.get("speed", 1.0), clones, True
    )


def _build_servers(spec: dict) -> list:
    count = spec.get("count", 1)
    if count < 1:
        raise ConfigError(f"servers.count must be >= 1, got {count}")
    model = spec.get("model", "server").lower()
    if model == "ps":
        return [
            ProcessorSharingServer(
                speed=spec.get("speed", 1.0), name=f"ps-server-{index}"
            )
            for index in range(count)
        ]
    if model != "server":
        raise ConfigError(
            f"servers.model: unknown server model {model!r}; "
            "use 'server' or 'ps'"
        )
    discipline_name = spec.get("discipline", "fcfs").lower()
    if discipline_name not in _DISCIPLINES:
        raise ConfigError(
            f"servers.discipline: unknown discipline {discipline_name!r}; "
            f"choose from {sorted(_DISCIPLINES)}"
        )
    return [
        Server(
            cores=spec.get("cores", 1),
            speed=spec.get("speed", 1.0),
            discipline=_DISCIPLINES[discipline_name](),
            name=f"server-{index}",
        )
        for index in range(count)
    ]


def _build_balancer(spec, servers):
    """String specs name a classic dispatch policy; dict specs configure
    a redundancy policy (``{"policy": "cloning", "clones": 2}`` or
    ``{"policy": "speculative_retry", "threshold": 0.1}``)."""
    if isinstance(spec, str):
        name = spec.lower()
        if name not in _BALANCERS:
            raise ConfigError(
                f"balancer: unknown balancer {name!r}; "
                f"choose from {sorted(_BALANCERS)}"
            )
        return _BALANCERS[name](servers)
    policy = spec.get("policy", "").lower()
    if policy == "cloning":
        return CloningBalancer(
            servers,
            clones=spec.get("clones", 2),
            synchronized=spec.get("synchronized", True),
        )
    if policy in ("speculative_retry", "spec_retry"):
        if "threshold" not in spec:
            raise ConfigError(
                "balancer: speculative_retry needs a 'threshold' (seconds)"
            )
        return SpeculativeRetryBalancer(
            servers,
            threshold=spec["threshold"],
            max_retries=spec.get("max_retries", 1),
        )
    raise ConfigError(
        f"balancer.policy: unknown balancer policy {policy!r}; "
        "use 'cloning' or 'speculative_retry'"
    )


def _track_metric(experiment: Experiment, entry, metric, where: str) -> None:
    checked(metric, _METRIC_KEYS, where, ConfigError)
    try:
        quantiles = {
            float(q): float(accuracy)
            for q, accuracy in metric.get("quantiles", {}).items()
        }
    except (TypeError, ValueError) as error:
        raise ConfigError(f"{where}.quantiles: {error}") from None
    kwargs = dict(
        mean_accuracy=metric.get("mean_accuracy", 0.05),
        quantiles=quantiles or None,
    )
    if "name" in metric:
        kwargs["name"] = metric["name"]
    kind = metric.get("kind")
    with _building(where):
        if kind == "response_time":
            experiment.track_response_time(entry, **kwargs)
        elif kind == "waiting_time":
            experiment.track_waiting_time(entry, **kwargs)
        else:
            raise ConfigError(
                f"{where}.kind: unknown metric kind {kind!r}; "
                "use 'response_time' or 'waiting_time'"
            )


def build_experiment(
    config: Union[dict, str, Path],
    prefetch: bool | None = None,
    sanitize: bool | None = None,
    engine: str | None = None,
) -> Experiment:
    """Build a fully wired experiment from a config dict or file path.

    ``prefetch`` / ``sanitize`` / ``engine`` override the config
    document's keys of the same name (used by ``repro run --sanitize``
    / ``--engine`` and the sanitizer's A/B twins, which rebuild the
    same config under both prefetch modes).
    """
    if isinstance(config, (str, Path)):
        config = load_config(config)
    checked(config, _TOP_KEYS, "", ConfigError, {"workload", "metrics"})
    if not config["metrics"]:
        raise ConfigError("metrics: must not be empty")
    pool = _pool(config)

    with _building("config"):
        experiment = Experiment(
            seed=config.get("seed", 0),
            warmup_samples=config.get("warmup_samples", 1000),
            calibration_samples=config.get("calibration_samples", 5000),
            confidence=config.get("confidence", 0.95),
            max_events=config.get("max_events", 50_000_000),
            prefetch=(
                config.get("prefetch", True) if prefetch is None else prefetch
            ),
            sanitize=(
                config.get("sanitize", False) if sanitize is None else sanitize
            ),
            engine=config.get("engine", "event") if engine is None else engine,
        )
    # Load scaling should account for the total core pool by default.
    workload = build_workload(
        {"cores_for_load": pool.cores, **config["workload"]}
    )
    if pool.clustered:
        with _building("cluster"):
            entry = MultiserverCluster(
                n_servers=pool.cores,
                speed=pool.speed,
                backfill=config["cluster"].get("backfill", False),
            )
    else:
        balancer_spec = config.get("balancer", "random")
        with _building("servers"):
            servers = _build_servers(config.get("servers", {}))
        if len(servers) == 1 and not isinstance(balancer_spec, dict):
            entry = servers[0]
        else:
            with _building("balancer"):
                entry = _build_balancer(balancer_spec, servers)

    experiment.add_source(workload, target=entry)
    for position, metric in enumerate(config["metrics"]):
        _track_metric(experiment, entry, metric, f"metrics[{position}]")
    return experiment
