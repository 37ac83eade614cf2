"""Per-metric phase machine: warm-up, calibration, measurement, convergence.

A :class:`Statistic` is one output metric (e.g. 95th-percentile response
time) with its own accuracy/confidence targets.  It consumes the raw
observation stream the simulation produces for that metric and implements
the full sequence of Fig. 2:

- discard the first ``Nw`` observations (warm-up; cold-start bias),
- collect a ``Nc``-observation calibration sample, run the runs-up test
  to find the lag spacing ``l`` and fix the histogram bin scheme,
- accept only every ``l``-th observation into the histogram, and
- declare convergence once the accepted sample size covers
  ``max(Nm, Nq)`` from Eqs. 2-3.

The simulated-event cost of a metric is therefore ``l`` times its required
i.i.d. sample size — exactly the inflation the paper discusses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.convergence import MetricTargets, Verdict, judge
from repro.core.histogram import BinScheme, Histogram
from repro.core.runs_test import LagSelection, select_lag

#: Fewest accepted observations between two convergence checks.
_CHECK_FLOOR = 32


class StatisticError(RuntimeError):
    """Raised for invalid statistic configuration or use."""


class Phase(enum.Enum):
    """The four phases of a BigHouse output metric (Fig. 2)."""

    WARMUP = "warmup"
    CALIBRATION = "calibration"
    MEASUREMENT = "measurement"
    CONVERGED = "converged"


#: Read by :meth:`Statistic.observe` once per observation: a module
#: global costs one lookup, ``Phase.MEASUREMENT`` two.
_MEASUREMENT = Phase.MEASUREMENT


@dataclass
class Estimate:
    """A converged (or in-progress) report for one output metric."""

    name: str
    phase: Phase
    converged: bool
    lag: Optional[int]
    accepted: int
    observed: int
    mean: Optional[float] = None
    std: Optional[float] = None
    quantiles: Dict[float, float] = field(default_factory=dict)
    mean_ci: Optional[Tuple[float, float]] = None
    quantile_ci: Dict[float, Tuple[float, float]] = field(default_factory=dict)

    def quantile(self, q: float) -> float:
        """Quantile estimate for a tracked q (KeyError if not tracked)."""
        return self.quantiles[q]

    @classmethod
    def from_verdict(
        cls, verdict: Verdict, phase: Phase, lag: Optional[int], observed: int
    ) -> "Estimate":
        """The report of a judged histogram: a Statistic's own, or the
        master's for a merged one."""
        return cls(
            name=verdict.targets.name,
            phase=phase,
            converged=phase is Phase.CONVERGED,
            lag=lag,
            accepted=verdict.count,
            observed=observed,
            mean=verdict.mean,
            std=verdict.std,
            quantiles=verdict.quantiles,
            mean_ci=verdict.mean_ci,
            quantile_ci=verdict.quantile_ci,
        )


def _normalize_quantiles(
    quantiles: Union[None, Mapping[float, float], Iterable]
) -> Tuple[Tuple[float, float], ...]:
    """Accept {q: accuracy}, [(q, accuracy), ...], or [q, ...] forms;
    return ``(q, accuracy)`` pairs in ascending ``q``."""
    if quantiles is None:
        return ()
    if isinstance(quantiles, Mapping):
        items = list(quantiles.items())
    else:
        items = []
        for entry in quantiles:
            if isinstance(entry, (tuple, list)):
                items.append((entry[0], entry[1]))
            else:
                items.append((float(entry), 0.05))
    normalized = {}
    for q, accuracy in items:
        if not 0.0 < q < 1.0:
            raise StatisticError(f"quantile must be in (0, 1), got {q}")
        if not 0.0 < accuracy < 1.0:
            raise StatisticError(
                f"quantile accuracy must be in (0, 1), got {accuracy}"
            )
        normalized[float(q)] = float(accuracy)
    return tuple(sorted(normalized.items()))


class Statistic:
    """One output metric progressing through the BigHouse phase sequence.

    Parameters
    ----------
    name:
        Metric identifier (e.g. ``"response_time"``).
    mean_accuracy:
        Target relative accuracy ``E`` for the mean estimate (Eq. 1);
        ``None`` disables the mean criterion.
    quantiles:
        Quantile targets, e.g. ``{0.95: 0.05}`` for the 95th percentile
        within ±5%.  May be empty.
    confidence:
        Confidence level ``1 - alpha`` shared by all criteria.
    warmup_samples:
        ``Nw`` — observations discarded before calibration.
    calibration_samples:
        ``Nc`` — calibration sample size (the paper uses 5000; the
        runs-up test needs a few thousand points for its chi-square
        approximation).
    bins:
        Regular bins in the quantile histogram.
    max_lag:
        Upper bound on the lag search during calibration.
    fixed_scheme:
        Pre-determined histogram bin scheme.  Used by parallel slaves,
        whose calibration determines only their own lag (Fig. 3).
    min_accepted:
        Floor on the accepted sample size before convergence may be
        declared, guarding the large-sample approximations.
    """

    def __init__(
        self,
        name: str,
        mean_accuracy: Optional[float] = 0.05,
        quantiles: Union[None, Mapping[float, float], Iterable] = None,
        confidence: float = 0.95,
        warmup_samples: int = 1000,
        calibration_samples: int = 5000,
        bins: int = 1000,
        max_lag: int = 50,
        fixed_scheme: Optional[BinScheme] = None,
        min_accepted: int = 100,
    ):
        if mean_accuracy is not None and not 0.0 < mean_accuracy < 1.0:
            raise StatisticError(
                f"mean_accuracy must be in (0, 1) or None, got {mean_accuracy}"
            )
        if warmup_samples < 0:
            raise StatisticError(f"warmup_samples must be >= 0: {warmup_samples}")
        if calibration_samples < 2:
            raise StatisticError(
                f"calibration_samples must be >= 2: {calibration_samples}"
            )
        self.name = name
        quantile_targets = _normalize_quantiles(quantiles)
        if mean_accuracy is None and not quantile_targets:
            raise StatisticError(
                f"statistic {name!r} has no convergence criterion: "
                "set mean_accuracy and/or quantiles"
            )
        #: The metric's Eq. 1-3 targets, which
        #: :func:`repro.core.convergence.judge` holds its histogram to.
        self.targets = MetricTargets(
            name, mean_accuracy, quantile_targets, confidence,
            int(min_accepted),
        )
        self.warmup_samples = int(warmup_samples)
        self.calibration_samples = int(calibration_samples)
        self.bins = int(bins)
        self.max_lag = int(max_lag)
        self.fixed_scheme = fixed_scheme

        self.phase = Phase.WARMUP
        self.lag: Optional[int] = None
        #: How the lag was chosen (set at calibration end): carries the
        #: conclusiveness flag — an inconclusive runs-up search grows the
        #: lag conservatively instead of accepting an untestable one.
        self.lag_selection: Optional[LagSelection] = None
        self.histogram: Optional[Histogram] = None
        self.observed = 0
        self.accepted = 0
        #: Convergence tests actually executed (telemetry).
        self.convergence_checks = 0
        self._warmup_seen = 0
        self._calibration: list[float] = []
        self._since_accept = 0
        self._barrier_lifted = True  # collection may take control of this
        #: Fired (once) when this metric reaches its warm-up quota while
        #: the barrier is held; a StatisticsCollection installs its
        #: all-warm check here so the per-observation hot path carries no
        #: barrier bookkeeping at all.
        self._warm_hook = None
        #: Accepted-count at which the next convergence test runs.  The
        #: test costs ~30 µs (numpy quantile scans over ~1000 bins), so
        #: instead of a fixed cadence the next check is scheduled a
        #: fraction of the estimated remaining gap ahead — O(log) checks
        #: over a run instead of O(accepted / interval).
        self._next_check = math.inf
        #: Structured tracer (repro.observability), or None.  Hooks fire
        #: only at phase transitions and convergence checks — never on
        #: the per-observation fast path.
        self._tracer = None

    # -- structured tracing --------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach a tracer; phase transitions and convergence checks
        emit ``statistic/*`` records from then on."""
        self._tracer = tracer

    # -- collection coordination -------------------------------------------

    @property
    def warm_ready(self) -> bool:
        """True once this metric has seen its Nw warm-up observations."""
        return self._warmup_seen >= self.warmup_samples

    def take_barrier_control(self) -> None:
        """Called by a StatisticsCollection: warm-up exit now needs an
        explicit :meth:`lift_warmup_barrier` (all-metrics-warm semantics)."""
        if self.phase is not Phase.WARMUP:
            raise StatisticError(
                f"{self.name}: cannot take barrier control in phase {self.phase}"
            )
        self._barrier_lifted = False

    def lift_warmup_barrier(self) -> None:
        """Allow the metric to leave warm-up (all metrics are warm)."""
        self._barrier_lifted = True
        if self.phase is Phase.WARMUP and self.warm_ready:
            self._enter_calibration()

    # -- the observation stream ---------------------------------------------

    def observe(self, value: float) -> None:
        """Feed one raw observation through the current phase.

        MEASUREMENT is tested first: it is where the overwhelming
        majority of a run's observations land, and this method is on the
        per-completion hot path.
        """
        self.observed += 1
        phase = self.phase
        if phase is _MEASUREMENT:
            since = self._since_accept + 1
            if since < self.lag:
                self._since_accept = since
            else:
                self._since_accept = 0
                self.histogram.insert(value)
                accepted = self.accepted + 1
                self.accepted = accepted
                if accepted >= self._next_check:
                    self._run_convergence_check()
            return
        if phase is Phase.WARMUP:
            self._warmup_seen += 1
            if self.warm_ready:
                if self._barrier_lifted:
                    self._enter_calibration()
                elif self._warm_hook is not None:
                    hook = self._warm_hook
                    self._warm_hook = None  # fire exactly once
                    hook()
            return
        if phase is Phase.CALIBRATION:
            self._calibration.append(value)
            if len(self._calibration) >= self.calibration_samples:
                self._finish_calibration()
            return
        # CONVERGED: further observations are ignored.

    def _run_convergence_check(self) -> bool:
        """The convergence test scheduled at :attr:`_next_check`.

        Shared by :meth:`observe` and :meth:`observe_block` so both
        paths make identical decisions at identical accepted counts.
        Returns True when the metric just converged.
        """
        accepted = self.accepted
        self.convergence_checks += 1
        verdict = judge(self.histogram, self.targets)
        required = verdict.required
        if self._tracer is not None:
            self._tracer.gauge(
                "convergence",
                accepted,
                component="statistic",
                metric=self.name,
                required=(
                    None if required == math.inf else required
                ),
                fraction=verdict.fraction_done,
            )
        if verdict.converged:
            self.phase = Phase.CONVERGED
            if self._tracer is not None:
                self._tracer.event(
                    "phase",
                    component="statistic",
                    metric=self.name,
                    to="converged",
                    accepted=accepted,
                    observed=self.observed,
                    lag=self.lag,
                )
            return True
        # Not there yet: re-test after 5% of the estimated remaining
        # gap (geometric backoff while the requirement is still
        # undefined).
        if required == math.inf:
            gap = accepted
        else:
            gap = int((required - accepted) * 0.05)
        self._next_check = accepted + max(_CHECK_FLOOR, gap)
        return False

    def observe_block(self, values) -> None:
        """Feed a block of raw observations through the phase machine.

        Exactly equivalent to ``for v in values: self.observe(v)`` —
        same phase transitions, same accepted/observed counts, same
        histogram bits, same convergence decisions at the same accepted
        counts — but vectorized: warm-up consumes quota without touching
        values, calibration extends its sample in one slice, and
        measurement selects the lag-thinned positions with a stride and
        feeds them to :meth:`Histogram.insert_block` in segments split
        at the scheduled convergence-check boundaries.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            values = values.reshape(-1)
        i = 0
        n = values.size
        while i < n:
            phase = self.phase
            if phase is Phase.MEASUREMENT:
                i += self._measure_block(values[i:])
            elif phase is Phase.WARMUP:
                i += self._warmup_block(n - i)
            elif phase is Phase.CALIBRATION:
                need = self.calibration_samples - len(self._calibration)
                take = need if need < n - i else n - i
                self._calibration.extend(values[i:i + take].tolist())
                self.observed += take
                i += take
                if len(self._calibration) >= self.calibration_samples:
                    self._finish_calibration()
            else:  # CONVERGED: values are ignored, counts still advance.
                self.observed += n - i
                return

    def _warmup_block(self, remaining: int) -> int:
        """Consume warm-up quota from a block; returns values consumed."""
        need = self.warmup_samples - self._warmup_seen
        if need > 0:
            take = need if need < remaining else remaining
        elif not self._barrier_lifted and self._warm_hook is None:
            # Quota met, hook already fired, barrier still held by the
            # collection: every further observation stays warm-up.
            take = remaining
        else:
            # Degenerate zero-quota start: the first observation is
            # still consumed by warm-up (scalar semantics).
            take = 1
        self._warmup_seen += take
        self.observed += take
        if self.warm_ready:
            if self._barrier_lifted:
                self._enter_calibration()
            elif self._warm_hook is not None:
                hook = self._warm_hook
                self._warm_hook = None  # fire exactly once
                hook()
        return take

    def _measure_block(self, values: np.ndarray) -> int:
        """Measurement-phase block ingestion; returns values consumed.

        Consumes the whole block unless convergence triggers first, in
        which case consumption stops right after the accepting
        observation — the caller routes the rest through CONVERGED.
        """
        lag = self.lag
        since = self._since_accept
        n = values.size
        first = lag - 1 - since
        if first >= n:
            # No observation reaches the lag boundary in this block.
            self._since_accept = since + n
            self.observed += n
            return n
        observed_start = self.observed
        accepted_values = values[first::lag]
        total = accepted_values.size
        position = 0
        while position < total:
            if self._next_check == math.inf:
                take = total - position
            else:
                until_check = int(self._next_check) - self.accepted
                take = until_check if until_check < total - position else (
                    total - position
                )
            self.histogram.insert_block(accepted_values[
                position:position + take
            ])
            self.accepted += take
            position += take
            if self.accepted >= self._next_check:
                # Raw observations consumed up to (and including) the
                # accepting one, so the check sees the same `observed`
                # the scalar path would.
                consumed = first + (position - 1) * lag + 1
                self.observed = observed_start + consumed
                if self._run_convergence_check():
                    self._since_accept = 0
                    return consumed
        self._since_accept = (since + n) % lag
        self.observed = observed_start + n
        return n

    def _enter_calibration(self) -> None:
        self.phase = Phase.CALIBRATION
        if self._tracer is not None:
            self._tracer.event(
                "phase",
                component="statistic",
                metric=self.name,
                to="calibration",
                observed=self.observed,
            )

    def _finish_calibration(self) -> None:
        """Runs-up lag search + histogram bin determination (Fig. 2, step 2).

        The lag is only *accepted* on a conclusive runs-up pass; an
        inconclusive search (calibration sample too small, tie-heavy
        data) grows the lag conservatively instead — see
        :func:`repro.core.runs_test.select_lag` and
        :attr:`lag_selection`.
        """
        selection = select_lag(self._calibration, max_lag=self.max_lag)
        self.lag = selection.lag
        self.lag_selection = selection
        scheme = self.fixed_scheme or BinScheme.from_sample(
            self._calibration, bins=self.bins
        )
        self.histogram = Histogram(scheme)
        self._calibration = []
        self._since_accept = 0
        self._next_check = max(self.targets.min_accepted, _CHECK_FLOOR)
        self.phase = Phase.MEASUREMENT
        if self._tracer is not None:
            self._tracer.event(
                "phase",
                component="statistic",
                metric=self.name,
                to="measurement",
                lag=selection.lag,
                lag_conclusive=selection.conclusive,
                lag_reason=selection.reason,
            )

    # -- convergence ----------------------------------------------------------

    @property
    def converged(self) -> bool:
        """True once the metric reached its accuracy/confidence target."""
        return self.phase is Phase.CONVERGED

    def required_sample_size(self) -> float:
        """Current estimate of max(Nm, Nq) given the running moments.

        Infinite while an estimate needed by a criterion is still
        undefined (e.g. zero density at a quantile early on).
        """
        return judge(self.histogram, self.targets).required

    # -- reporting --------------------------------------------------------------

    def estimate(self) -> Estimate:
        """Snapshot of all estimates with confidence intervals."""
        return Estimate.from_verdict(
            judge(self.histogram, self.targets), self.phase, self.lag,
            self.observed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Statistic({self.name!r}, phase={self.phase.value}, "
            f"observed={self.observed}, accepted={self.accepted}, lag={self.lag})"
        )
