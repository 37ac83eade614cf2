"""Online histogram for quantile estimation (Chen & Kelton 2001).

Recording and sorting every observation to extract exact quantiles would
cost memory proportional to the (large) converged sample size.  BigHouse
instead fixes a histogram bin scheme during the calibration phase and then
streams measurement-phase observations into fixed-width bins; quantiles
are read back by linear interpolation in the cumulative histogram.

Histograms with identical bin schemes merge bin-wise, which is the entire
"reduce" step of the parallel master/slave protocol (Fig. 3): slaves ship
their histograms, the master adds them up and reads estimates off the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class HistogramError(ValueError):
    """Raised for invalid bin schemes or incompatible merges."""


@dataclass(frozen=True)
class BinScheme:
    """Immutable bin layout fixed at calibration time.

    ``low``/``high`` bound the regular bins; observations outside land in
    open-ended underflow/overflow regions whose extent is tracked by the
    running min/max.  The scheme is what the master broadcasts to slaves.
    """

    low: float
    high: float
    bins: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.low) or not math.isfinite(self.high):
            raise HistogramError(f"bounds must be finite: [{self.low}, {self.high}]")
        if self.high <= self.low:
            raise HistogramError(f"high ({self.high}) must exceed low ({self.low})")
        if self.bins < 1:
            raise HistogramError(f"need >= 1 bin, got {self.bins}")

    @property
    def width(self) -> float:
        """Width of one regular bin."""
        return (self.high - self.low) / self.bins

    @classmethod
    def from_sample(
        cls,
        sample: Sequence[float],
        bins: int = 1000,
        tail_padding: float = 0.5,
    ) -> "BinScheme":
        """Fit a scheme to a calibration sample.

        The upper bound is padded by ``tail_padding`` of the sample range
        because the measurement phase will see observations beyond the
        calibration maximum (queue tails grow); padded mass would
        otherwise all collapse into the overflow region and blunt
        high-quantile resolution.
        """
        values = np.asarray(sample, dtype=float)
        if values.size < 2:
            raise HistogramError(f"need >= 2 calibration values, got {values.size}")
        low = float(values.min())
        high = float(values.max())
        if high == low:
            # Degenerate (deterministic metric): a token-width scheme.
            span = abs(high) if high != 0 else 1.0
            padded_low = low - 0.5 * span
            padded_high = high + 0.5 * span
            if not padded_low < padded_high:
                # A subnormal span rounds away entirely; use unit width.
                padded_low, padded_high = low - 0.5, high + 0.5
            return cls(low=padded_low, high=padded_high, bins=bins)
        pad = tail_padding * (high - low)
        return cls(low=low, high=high + pad, bins=bins)


class Histogram:
    """Streaming histogram with mergeable counts and exact running moments.

    Moments (mean/variance via a numerically stable sum formulation, plus
    min/max) are tracked exactly from the raw stream; only the *quantiles*
    go through the binned approximation.

    Bin counts live in a plain Python list: incrementing one numpy int64
    element costs ~6x a list-element increment, and :meth:`insert` runs
    for every accepted observation.  The :attr:`counts` property presents
    the familiar numpy view for analysis, merging, and tests.
    """

    def __init__(self, scheme: BinScheme):
        self.scheme = scheme
        self._counts: list[int] = [0] * scheme.bins
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self._sum = 0.0
        self._sum_sq = 0.0
        self.min_seen = math.inf
        self.max_seen = -math.inf
        # Bin lookup constants, hoisted out of insert (scheme.width is a
        # computed property; a multiply beats a divide).
        self._low = scheme.low
        self._high = scheme.high
        self._bins = scheme.bins
        self._inv_width = scheme.bins / (scheme.high - scheme.low)

    @property
    def counts(self) -> np.ndarray:
        """Regular-bin counts as an array (copy; mutate via insert/merge)."""
        return np.asarray(self._counts, dtype=np.int64)

    @counts.setter
    def counts(self, values) -> None:
        counts = [int(v) for v in values]
        if len(counts) != self._bins:
            raise HistogramError(
                f"expected {self._bins} bin counts, got {len(counts)}"
            )
        self._counts = counts

    # -- insertion ---------------------------------------------------------

    def insert(self, value: float) -> None:
        """Record one observation."""
        if not math.isfinite(value):
            raise HistogramError(f"cannot insert non-finite value: {value}")
        self.count += 1
        self._sum += value
        self._sum_sq += value * value
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value
        if value < self._low:
            self.underflow += 1
        elif value >= self._high:
            self.overflow += 1
        else:
            try:
                index = int((value - self._low) * self._inv_width)
            except (OverflowError, ValueError):
                # Degenerate schemes (subnormal span) overflow the
                # precomputed reciprocal.  The fraction form cannot
                # produce nan: high > low guarantees the denominator is
                # a positive finite float.
                fraction = (value - self._low) / (self._high - self._low)
                index = int(fraction * self._bins)
            # Floating-point edge: value just below high can round to bins.
            if index >= self._bins:
                index = self._bins - 1
            self._counts[index] += 1

    def insert_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations."""
        for value in values:
            self.insert(value)

    def insert_block(self, values: np.ndarray) -> None:
        """Record a block of observations, bit-identical to an
        :meth:`insert` loop over the same values.

        Equivalence is exact, not approximate: the running sums use
        ``np.add.accumulate`` seeded with the prior totals (sequential
        left-to-right application, the same rounding sequence as the
        scalar ``+=`` chain), bin indices use the same elementwise
        ``(value - low) * inv_width`` truncation, and a non-finite value
        raises after its finite prefix has been inserted — exactly where
        the scalar loop would have stopped.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            values = values.reshape(-1)
        if values.size == 0:
            return
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(np.argmin(finite))
            if bad:
                self.insert_block(values[:bad])
            raise HistogramError(
                f"cannot insert non-finite value: {values[bad]}"
            )
        self.count += values.size
        self._sum = float(
            np.add.accumulate(np.concatenate(([self._sum], values)))[-1]
        )
        self._sum_sq = float(
            np.add.accumulate(
                np.concatenate(([self._sum_sq], values * values))
            )[-1]
        )
        low_value = float(values.min())
        high_value = float(values.max())
        if low_value < self.min_seen:
            self.min_seen = low_value
        if high_value > self.max_seen:
            self.max_seen = high_value
        under = values < self._low
        over = values >= self._high
        self.underflow += int(under.sum())
        self.overflow += int(over.sum())
        mid = values[~(under | over)]
        if not mid.size:
            return
        scaled = (mid - self._low) * self._inv_width
        if np.isfinite(scaled).all():
            indices = scaled.astype(np.int64)
        else:
            # Degenerate schemes (subnormal span) overflow the
            # precomputed reciprocal — same fallback as scalar insert.
            fraction = (mid - self._low) / (self._high - self._low)
            indices = (fraction * self._bins).astype(np.int64)
        np.minimum(indices, self._bins - 1, out=indices)
        counts = self._counts
        block_counts = np.bincount(indices, minlength=self._bins)
        occupied = np.nonzero(block_counts)[0]
        for index, added in zip(
            occupied.tolist(), block_counts[occupied].tolist()
        ):
            counts[index] += added

    # -- moments -----------------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact running mean of all inserted observations."""
        if self.count == 0:
            raise HistogramError("mean of empty histogram")
        return self._sum / self.count

    @property
    def variance(self) -> float:
        """Exact running (population) variance."""
        if self.count == 0:
            raise HistogramError("variance of empty histogram")
        mean = self.mean
        return max(0.0, self._sum_sq / self.count - mean * mean)

    @property
    def std(self) -> float:
        """Exact running standard deviation."""
        return math.sqrt(self.variance)

    # -- quantiles ---------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Quantile estimate by interpolating the cumulative histogram.

        Underflow mass is spread over [min_seen, low) and overflow mass
        over [high, max_seen], keeping extreme quantiles defined even when
        the calibration-fixed scheme did not anticipate the tail.
        """
        if not 0.0 <= q <= 1.0:
            raise HistogramError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise HistogramError("quantile of empty histogram")
        # Bin interpolation can stray past the observed extremes by up to
        # one bin width; the extremes are known exactly, so clamp.
        return min(self.max_seen, max(self.min_seen, self._quantile_raw(q)))

    def _quantile_raw(self, q: float) -> float:
        target = q * self.count
        scheme = self.scheme
        if self.underflow and target <= self.underflow:
            lo = self.min_seen
            hi = min(scheme.low, self.max_seen)
            return lo + (hi - lo) * (target / self.underflow)
        # Vectorized cumulative scan: convergence checks call this every
        # few dozen accepted samples, and a Python loop over ~1000 bins
        # dominated check cost.
        counts = np.asarray(self._counts, dtype=np.int64)
        cumulative = counts.cumsum()
        inner = cumulative[-1] if counts.size else 0
        inner_target = target - self.underflow
        if inner and inner_target <= inner:
            if inner_target > 0:
                index = int(np.searchsorted(cumulative, inner_target, "left"))
            else:
                # q at (or below) the underflow boundary: the left edge of
                # the first occupied bin, matching the scan semantics.
                index = int(np.searchsorted(cumulative, 0, "right"))
            bin_count = float(counts[index])
            before = float(cumulative[index]) - bin_count
            left = scheme.low + index * scheme.width
            fraction = (inner_target - before) / bin_count
            return left + fraction * scheme.width
        # Remaining mass is overflow.
        if self.overflow:
            lo = scheme.high
            hi = max(self.max_seen, scheme.high)
            fraction = (inner_target - float(inner)) / self.overflow
            return lo + (hi - lo) * min(1.0, max(0.0, fraction))
        return float(self.max_seen)

    def density_at_quantile(self, q: float) -> float:
        """Estimated pdf at the q-quantile, used by the delta-method
        conversion between value-space and probability-space accuracy."""
        if self.count == 0:
            raise HistogramError("density of empty histogram")
        value = self.quantile(q)
        scheme = self.scheme
        if value < scheme.low:
            span = max(scheme.low - self.min_seen, scheme.width)
            return self.underflow / self.count / span
        if value >= scheme.high:
            span = max(self.max_seen - scheme.high, scheme.width)
            return self.overflow / self.count / span
        index = min(int((value - scheme.low) / scheme.width), scheme.bins - 1)
        return float(self._counts[index]) / self.count / scheme.width

    # -- merging (the parallel "reduce") ------------------------------------

    def rebin_to(self, scheme: BinScheme) -> "Histogram":
        """A copy of this histogram approximated onto a different scheme.

        Each source bin's mass is deposited at its midpoint in the target
        scheme (underflow/overflow regions use the midpoint of their
        observed extent).  Totals and the exact running moments are
        preserved; only the *binned* quantile resolution degrades — by at
        most one source bin width, the same error class the histogram
        approximation already carries.
        """
        target = Histogram(scheme)
        target.count = self.count
        target._sum = self._sum
        target._sum_sq = self._sum_sq
        target.min_seen = self.min_seen
        target.max_seen = self.max_seen

        def deposit(value: float, mass: int) -> None:
            if not mass:
                return
            if value < scheme.low:
                target.underflow += mass
            elif value >= scheme.high:
                target.overflow += mass
            else:
                index = min(
                    int((value - scheme.low) / scheme.width), scheme.bins - 1
                )
                target._counts[index] += mass

        source = self.scheme
        for index, mass in enumerate(self._counts):
            deposit(source.low + (index + 0.5) * source.width, mass)
        if self.underflow:
            lo = self.min_seen if math.isfinite(self.min_seen) else source.low
            deposit((lo + source.low) / 2.0, self.underflow)
        if self.overflow:
            hi = (
                max(self.max_seen, source.high)
                if math.isfinite(self.max_seen)
                else source.high
            )
            deposit((source.high + hi) / 2.0, self.overflow)
        return target

    def merge(self, other: "Histogram", rebin: bool = False) -> None:
        """Fold another histogram into this one.

        Schemes must be identical unless ``rebin=True``, in which case
        ``other`` is first approximated onto this histogram's scheme via
        :meth:`rebin_to`.  A silent bin-wise merge of mismatched schemes
        would attribute mass to the wrong value ranges, so the default is
        to refuse loudly.
        """
        if other.scheme != self.scheme:
            if not rebin:
                raise HistogramError(
                    f"cannot merge different schemes: {self.scheme} vs "
                    f"{other.scheme}; pass rebin=True to approximate onto "
                    "this histogram's scheme"
                )
            other = other.rebin_to(self.scheme)
        counts = self._counts
        for index, extra in enumerate(other._counts):
            counts[index] += extra
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.count += other.count
        self._sum += other._sum
        self._sum_sq += other._sum_sq
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)

    def merge_payload(self, payload: dict) -> None:
        """Fold a payload dict (full or delta form) into this histogram.

        The master's incremental reduce: accumulating a slave's bin-count
        *delta* avoids re-materializing and re-summing every slave's full
        histogram each round.  ``min_seen``/``max_seen`` in a payload are
        always absolute running extrema (min/max are not delta-able) and
        merge idempotently.

        Malformed payloads are rejected *before* any state is touched —
        the same contract as the full-report path
        (:meth:`from_payload`): a wrong-length ``counts`` list or a
        count total that disagrees with the bin masses raises
        :class:`HistogramError` instead of silently merging a prefix.
        """
        low, high, bins = payload["scheme"]
        scheme = self.scheme
        if (low, high, bins) != (scheme.low, scheme.high, scheme.bins):
            raise HistogramError(
                f"cannot merge payload with scheme {payload['scheme']} "
                f"into {scheme}; rebin slave-side or recalibrate"
            )
        extra_counts = payload["counts"]
        if len(extra_counts) != self._bins:
            raise HistogramError(
                f"payload carries {len(extra_counts)} bin counts, scheme "
                f"expects {self._bins}; refusing a partial merge"
            )
        total = sum(extra_counts) + payload["underflow"] + payload["overflow"]
        if total != payload["count"]:
            raise HistogramError(
                f"payload count invariant violated: bins+underflow+overflow "
                f"= {total} but count = {payload['count']}"
            )
        counts = self._counts
        for index, extra in enumerate(extra_counts):
            counts[index] += extra
        self.underflow += payload["underflow"]
        self.overflow += payload["overflow"]
        self.count += payload["count"]
        self._sum += payload["sum"]
        self._sum_sq += payload["sum_sq"]
        self.min_seen = min(self.min_seen, payload["min_seen"])
        self.max_seen = max(self.max_seen, payload["max_seen"])

    # -- (de)serialization for the wire protocol ----------------------------

    def to_payload(self) -> dict:
        """Plain-dict form for pickling/IPC to the parallel master."""
        return {
            "scheme": (self.scheme.low, self.scheme.high, self.scheme.bins),
            "counts": list(self._counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "sum": self._sum,
            "sum_sq": self._sum_sq,
            "min_seen": self.min_seen,
            "max_seen": self.max_seen,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Histogram":
        """Inverse of :meth:`to_payload`."""
        low, high, bins = payload["scheme"]
        histogram = cls(BinScheme(low=low, high=high, bins=bins))
        histogram.counts = payload["counts"]
        histogram.underflow = payload["underflow"]
        histogram.overflow = payload["overflow"]
        histogram.count = payload["count"]
        histogram._sum = payload["sum"]
        histogram._sum_sq = payload["sum_sq"]
        histogram.min_seen = payload["min_seen"]
        histogram.max_seen = payload["max_seen"]
        return histogram
