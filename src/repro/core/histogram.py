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
from typing import Sequence

import numpy as np


class HistogramError(ValueError):
    """Raised for invalid bin schemes or incompatible merges."""


def _bin_counts(values, bins: int) -> np.ndarray:
    """``values`` as a fresh int64 array of ``bins`` bin counts, refusing
    any count that is not an ``int`` (bools too), which a cast would
    truncate silently."""
    if len(values) != bins:
        raise HistogramError(f"expected {bins} bin counts, got {len(values)}")
    if isinstance(values, np.ndarray):
        integral = values.shape == (bins,) and values.dtype.kind == "i"
    else:
        integral = set(map(type, values)) == {int}
    if not integral:
        raise HistogramError("bin counts must be ints, one per bin")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError as error:
        raise HistogramError(f"bin count out of range: {error}") from None


def _payload_counts(payload: dict, bins: int) -> np.ndarray:
    """A payload's bin counts as an int64 array, once its masses are ints,
    non-negative (counts only grow, so even a delta is) and total ``count``.

    The reject-before-mutate check :meth:`Histogram.merge_payload` and the
    parallel master's report validator share.
    """
    counts = _bin_counts(payload["counts"], bins)
    masses = (payload["underflow"], payload["overflow"], payload["count"])
    if set(map(type, masses)) != {int}:
        raise HistogramError("underflow, overflow and count must be ints")
    underflow, overflow, count = masses
    if underflow < 0 or overflow < 0 or counts.min() < 0:
        raise HistogramError("negative bin mass")
    total = int(counts.sum()) + underflow + overflow
    if total != count:
        raise HistogramError(
            f"count invariant violated: bins+underflow+overflow = {total} "
            f"but count = {count}"
        )
    return counts


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

    Bin counts live in one int64 array.  An event-engine replication
    makes ~9-21 k scalar :meth:`insert` calls, each ~200 ns dearer on an
    array element than on a list element (2-core Xeon), against ~70-180
    quantile reads that each save ~20 us by using the array as it is
    instead of copying a 1000-bin list into one; block inserts and merges
    add whole arrays.  The :attr:`counts` property hands out a copy.
    """

    def __init__(self, scheme: BinScheme):
        self.scheme = scheme
        self._counts = np.zeros(scheme.bins, dtype=np.int64)
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
        """Regular-bin counts (a copy; mutate via insert/merge_payload)."""
        return self._counts.copy()

    @counts.setter
    def counts(self, values) -> None:
        self._counts = _bin_counts(values, self._bins)

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
        self._counts += np.bincount(indices, minlength=self._bins)

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
        cumulative = self._counts.cumsum()
        inner = cumulative[-1]
        inner_target = target - self.underflow
        if inner and inner_target <= inner:
            if inner_target > 0:
                index = int(np.searchsorted(cumulative, inner_target, "left"))
            else:
                # q at (or below) the underflow boundary: the left edge of
                # the first occupied bin, matching the scan semantics.
                index = int(np.searchsorted(cumulative, 0, "right"))
            bin_count = float(self._counts[index])
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

    def merge_payload(self, payload: dict) -> None:
        """Fold a payload dict (full or delta form) into this histogram.

        The master's incremental reduce: accumulating a slave's bin-count
        *delta* avoids re-materializing and re-summing every slave's full
        histogram each round.  ``min_seen``/``max_seen`` in a payload are
        always absolute running extrema (min/max are not delta-able) and
        merge idempotently.

        Malformed payloads are rejected *before* any state is touched:
        a wrong-length ``counts`` list, a mass that is not an int or is
        negative, or a count total that disagrees with the bin masses
        raises :class:`HistogramError` instead of silently merging a
        prefix or truncating a fraction.
        """
        low, high, bins = payload["scheme"]
        scheme = self.scheme
        if (low, high, bins) != (scheme.low, scheme.high, scheme.bins):
            raise HistogramError(
                f"cannot merge payload with scheme {payload['scheme']} "
                f"into {scheme}; histograms merge only under one bin scheme"
            )
        self._counts += _payload_counts(payload, self._bins)
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
            "counts": self._counts.tolist(),
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
        """Inverse of :meth:`to_payload`: an empty histogram with the
        payload merged in, so a malformed payload is refused the same way."""
        low, high, bins = payload["scheme"]
        histogram = cls(BinScheme(low=low, high=high, bins=bins))
        histogram.merge_payload(payload)
        return histogram
