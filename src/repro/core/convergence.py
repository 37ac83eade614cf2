"""The one judge of a metric: Eqs. 1-3 over a histogram.

A live :class:`~repro.core.statistic.Statistic`, the parallel master
(which judges the *merged* histogram aggregated from all slaves,
Fig. 3), ``Experiment.progress``, telemetry and the progress reporter
all ask one question of a histogram and a metric's
:class:`MetricTargets`: how large must the i.i.d. sample be (Eqs. 2-3),
is it that large yet, and what interval does it give?  :func:`judge`
answers all of it in one pass over the same moments, quantiles and
densities, so "converged" and the reported interval cannot disagree.
The two half-width formulas below are the only copies in the package;
the replication and batch-means estimators build their intervals from
them too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.confidence import mean_sample_size, quantile_sample_size, z_value
from repro.core.histogram import Histogram


def mean_half_width(std: float, n: int, confidence: float = 0.95) -> float:
    """Eq. 2 solved for the CLT half-width of a mean: ``z * sigma / sqrt(n)``."""
    return z_value(confidence) * std / math.sqrt(n)


def quantile_half_width(q: float, n: int, confidence: float = 0.95) -> float:
    """Eq. 3 solved for the probability half-width: ``z * sqrt(q(1-q)/n)``."""
    return z_value(confidence) * math.sqrt(q * (1.0 - q) / n)


def mean_confidence_interval(
    mean: float, std: float, n: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """CLT confidence interval for a mean from n i.i.d. observations."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    half = mean_half_width(std, n, confidence)
    return mean - half, mean + half


@dataclass(frozen=True)
class MetricTargets:
    """One metric's convergence targets, and their only holder.

    A :class:`~repro.core.statistic.Statistic` builds one from its
    constructor arguments, the parallel master judges the merged
    histogram against the calibrated statistic's, and a checkpoint
    stores it as its ``targets`` record.  ``quantile_targets`` holds
    ``(q, accuracy)`` pairs in ascending ``q``.
    """

    name: str
    mean_accuracy: Optional[float]
    quantile_targets: Tuple[Tuple[float, float], ...]
    confidence: float
    min_accepted: int

    def __post_init__(self) -> None:
        z_value(self.confidence)  # refuses a level outside (0, 1)

    def to_record(self) -> dict:
        """The checkpoint's ``targets`` record: every field but the name,
        which the enclosing ``metric`` record carries."""
        record = asdict(self)
        del record["name"]
        return record

    @classmethod
    def from_record(cls, name: str, record: dict) -> "MetricTargets":
        """Inverse of :meth:`to_record` for a record ``read_checkpoint``
        has checked against these fields (JSON turned the pairs to lists)."""
        pairs = tuple(tuple(pair) for pair in record["quantile_targets"])
        return cls(**{**record, "name": name, "quantile_targets": pairs})


@dataclass
class Verdict:
    """One histogram judged against one metric's targets (:func:`judge`).

    The summary fields are ``None``/empty for an empty histogram, and a
    quantile whose density is zero has no interval.
    """

    targets: MetricTargets
    count: int
    #: ``max(min_accepted, Nm, Nq, ...)``; ``inf`` while an estimate it
    #: needs is undefined (zero density at a target quantile, zero mean
    #: under a relative-accuracy criterion).
    required: float
    mean: Optional[float] = None
    std: Optional[float] = None
    quantiles: Dict[float, float] = field(default_factory=dict)
    mean_ci: Optional[Tuple[float, float]] = None
    quantile_ci: Dict[float, Tuple[float, float]] = field(default_factory=dict)
    #: Achieved relative half-widths (Eq. 1) once two samples are in:
    #: ``"mean"`` and ``"q<q>"``.
    accuracy: Dict[str, float] = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        """The sample covers its Eq. 2-3 requirement."""
        return self.count >= self.required

    @property
    def fraction_done(self) -> Optional[float]:
        """``count / required`` clamped to 1; None while undefined."""
        if self.required in (0, math.inf):
            return None
        return min(1.0, self.count / self.required)


def judge(histogram: Optional[Histogram], targets: MetricTargets) -> Verdict:
    """Judge ``histogram`` against ``targets``: Eqs. 1-3 in one pass.

    The quantile intervals use the CLT order-statistic interval mapped
    through the histogram's density at the quantile (Chen & Kelton); the
    requirement converts each quantile's value-unit accuracy to
    probability units through the same density.
    """
    n = 0 if histogram is None else histogram.count
    if n == 0:
        return Verdict(targets, 0, math.inf)
    confidence = targets.confidence
    mean, std = histogram.mean, histogram.std
    required = float(targets.min_accepted)
    half = mean_half_width(std, n, confidence)
    accuracy: Dict[str, float] = {}
    if targets.mean_accuracy is not None:
        if std > 0.0:
            epsilon = targets.mean_accuracy * abs(mean)
            required = math.inf if epsilon <= 0.0 else max(
                required, mean_sample_size(std, epsilon, confidence)
            )
        if n >= 2 and mean != 0:
            accuracy["mean"] = half / abs(mean)
    quantiles: Dict[float, float] = {}
    quantile_ci: Dict[float, Tuple[float, float]] = {}
    for q, target in targets.quantile_targets:
        x_q = quantiles[q] = histogram.quantile(q)
        density = histogram.density_at_quantile(q)
        epsilon_p = target * abs(x_q) * density
        # A probability half-width can never exceed the shorter tail.
        required = math.inf if epsilon_p <= 0.0 else max(
            required,
            quantile_sample_size(q, min(epsilon_p, q, 1.0 - q), confidence),
        )
        if density > 0:
            half_q = quantile_half_width(q, n, confidence) / density
            quantile_ci[q] = (x_q - half_q, x_q + half_q)
            if n >= 2 and x_q != 0:
                accuracy[f"q{q:g}"] = half_q / abs(x_q)
    return Verdict(
        targets, n, required, mean, std, quantiles,
        (mean - half, mean + half), quantile_ci, accuracy,
    )
