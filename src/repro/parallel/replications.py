"""Independent replications: the other classic variance-reduction mode.

The master/slave protocol (Fig. 3) shares one convergence target across
slaves.  *Independent replications* is the simpler textbook alternative:
run the same experiment R times under different seeds to completion,
then combine the R independent point estimates.  It costs R full
warm-up+calibration+convergence runs (no aggregate-size early stop), but
the across-replication variance gives a model-free confidence interval
that does not rest on the lag-spacing independence argument at all —
making it the natural *cross-check* of the in-run CIs (and of the whole
statistics pipeline, which is how the test suite uses it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.convergence import mean_confidence_interval
from repro.engine.experiment import Experiment
from repro.faults.recovery import derive_seed


@dataclass
class ReplicatedEstimate:
    """Combined estimate of one metric across replications."""

    name: str
    values: List[float]
    confidence: float = 0.95

    @property
    def replications(self) -> int:
        """Number of replications combined."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Grand mean across replications."""
        return sum(self.values) / len(self.values)

    @property
    def std(self) -> float:
        """Across-replication sample standard deviation."""
        n = len(self.values)
        if n < 2:
            raise ValueError("need >= 2 replications for a variance")
        grand = self.mean
        return math.sqrt(
            sum((v - grand) ** 2 for v in self.values) / (n - 1)
        )

    @property
    def confidence_interval(self) -> tuple:
        """CI on the grand mean from across-replication variance."""
        std = self.std  # refuses fewer than two replications first
        return mean_confidence_interval(
            self.mean, std, len(self.values), self.confidence
        )


@dataclass
class ReplicationResult:
    """Outcome of a replicated study."""

    estimates: Dict[str, ReplicatedEstimate]
    all_converged: bool
    total_events: int
    seeds: List[int] = field(default_factory=list)
    #: Seeds whose replication raised and was retried (or abandoned);
    #: empty for a fault-free study.
    failed_seeds: List[int] = field(default_factory=list)

    def __getitem__(self, name: str) -> ReplicatedEstimate:
        return self.estimates[name]


def run_replications(
    factory: Callable[..., Experiment],
    replications: int = 5,
    base_seed: int = 0,
    factory_kwargs: Optional[dict] = None,
    metric_value: str = "mean",
    quantile: Optional[float] = None,
    max_events: Optional[int] = None,
    max_retries: int = 0,
) -> ReplicationResult:
    """Run ``factory(seed, **kwargs)`` to convergence R times and combine.

    ``metric_value`` selects what is extracted per replication: the
    metric ``"mean"`` (default) or ``"quantile"`` (then ``quantile``
    names which one).

    ``max_retries`` extra attempts are made per replication when the
    factory or the run itself raises: each retry draws a fresh seed
    derived from the failed one (generation-style, via
    :func:`repro.faults.recovery.derive_seed`) so a seed-dependent
    crash is not simply replayed.  Failed seeds are reported on
    ``ReplicationResult.failed_seeds``; a replication that exhausts its
    attempts re-raises its last error.
    """
    if replications < 2:
        raise ValueError(f"need >= 2 replications, got {replications}")
    if metric_value not in ("mean", "quantile"):
        raise ValueError(f"unknown metric_value {metric_value!r}")
    if metric_value == "quantile" and quantile is None:
        raise ValueError("metric_value='quantile' needs quantile=")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    kwargs = dict(factory_kwargs or {})
    values: Dict[str, List[float]] = {}
    seeds = []
    failed_seeds: List[int] = []
    all_converged = True
    total_events = 0
    confidence = 0.95
    for replication in range(replications):
        seed = base_seed + 7919 * (replication + 1)  # distinct primes apart
        for attempt in range(max_retries + 1):
            try:
                experiment = factory(seed=seed, **kwargs)
                result = experiment.run(max_events=max_events)
                break
            except Exception:
                failed_seeds.append(seed)
                if attempt == max_retries:
                    raise
                seed = derive_seed(seed, replication, attempt + 1)
        seeds.append(seed)
        confidence = experiment.confidence
        all_converged = all_converged and result.converged
        total_events += result.events_processed
        for name, estimate in result.estimates.items():
            if metric_value == "mean":
                value = estimate.mean
            else:
                value = estimate.quantiles.get(quantile)
            if value is None:
                raise ValueError(
                    f"metric {name!r} has no {metric_value} "
                    f"(quantile={quantile}) in replication {replication}"
                )
            values.setdefault(name, []).append(value)
    estimates = {
        name: ReplicatedEstimate(name, series, confidence)
        for name, series in values.items()
    }
    return ReplicationResult(
        estimates=estimates,
        all_converged=all_converged,
        total_events=total_events,
        seeds=seeds,
        failed_seeds=failed_seeds,
    )
