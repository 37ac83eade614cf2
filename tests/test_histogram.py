"""Unit tests for the streaming histogram (Chen & Kelton quantiles)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import BinScheme, Histogram, HistogramError


def filled(values, scheme=None, bins=100):
    values = np.asarray(values, dtype=float)
    if scheme is None:
        scheme = BinScheme.from_sample(values, bins=bins)
    histogram = Histogram(scheme)
    histogram.insert_block(values)
    return histogram


class TestBinScheme:
    def test_from_sample_covers_range(self):
        scheme = BinScheme.from_sample([1.0, 2.0, 10.0], bins=50)
        assert scheme.low == pytest.approx(1.0)
        assert scheme.high > 10.0  # padded tail
        assert scheme.bins == 50

    def test_degenerate_sample_gets_token_width(self):
        scheme = BinScheme.from_sample([5.0, 5.0], bins=10)
        assert scheme.low < 5.0 < scheme.high

    def test_rejects_bad_parameters(self):
        with pytest.raises(HistogramError):
            BinScheme(low=1.0, high=1.0, bins=10)
        with pytest.raises(HistogramError):
            BinScheme(low=0.0, high=1.0, bins=0)
        with pytest.raises(HistogramError):
            BinScheme(low=float("nan"), high=1.0, bins=10)
        with pytest.raises(HistogramError):
            BinScheme.from_sample([1.0], bins=10)

    def test_width(self):
        scheme = BinScheme(low=0.0, high=10.0, bins=100)
        assert scheme.width == pytest.approx(0.1)


class TestMoments:
    def test_exact_mean_std(self, rng):
        values = rng.exponential(size=5000)
        histogram = filled(values)
        assert histogram.mean == pytest.approx(np.mean(values), rel=1e-9)
        assert histogram.std == pytest.approx(np.std(values), rel=1e-6)

    def test_one_pass_variance_matches_two_pass_on_mm4_responses(self):
        """``variance`` is ``sum_sq / n - mean**2``, which cancels badly
        when the spread is small against the mean.  On a million M/M/4
        response times at rho = 0.8 (the ``mm4_fastpath`` model) it
        agrees with the two-pass variance to about 1e-13, so it cannot be
        what makes a confidence interval too narrow."""
        from repro.distributions import Exponential
        from repro.engine.fastpath import BLOCK_JOBS, _ggc_scan, _lane_buffers

        rng = np.random.default_rng(4242)
        histogram = Histogram(BinScheme(0.0, 20.0, 1000))

        def draw(n):
            gaps = Exponential(rate=3.2).sample_block(rng, n)
            return gaps, Exponential(rate=1.0).sample_block(rng, n)

        carry, buffers = (0.0, [0.0] * 4, 1), _lane_buffers()
        blocks = []
        while len(blocks) < 32:
            left = (32 - len(blocks)) * BLOCK_JOBS
            scanned = _ggc_scan(draw, left, carry, buffers)
            for waits, services, carry in scanned:
                blocks.append(waits + services)
                histogram.insert_block(blocks[-1])
        values = np.concatenate(blocks)
        assert histogram.count == values.size >= 2**20
        two_pass = np.mean((values - values.mean()) ** 2)
        assert abs(histogram.variance - two_pass) <= 1e-12 * two_pass

    def test_min_max_tracked(self):
        histogram = filled([1.0, 5.0, 3.0])
        assert histogram.min_seen == 1.0
        assert histogram.max_seen == 5.0

    def test_empty_histogram_raises(self):
        histogram = Histogram(BinScheme(0.0, 1.0, 10))
        with pytest.raises(HistogramError):
            _ = histogram.mean
        with pytest.raises(HistogramError):
            histogram.quantile(0.5)

    def test_nonfinite_rejected(self):
        histogram = Histogram(BinScheme(0.0, 1.0, 10))
        with pytest.raises(HistogramError):
            histogram.insert(float("inf"))
        with pytest.raises(HistogramError):
            histogram.insert(float("nan"))


class TestQuantiles:
    def test_matches_numpy_on_uniform(self, rng):
        values = rng.uniform(0.0, 10.0, size=20_000)
        histogram = filled(values, bins=1000)
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            assert histogram.quantile(q) == pytest.approx(
                np.quantile(values, q), rel=0.02, abs=0.05
            )

    def test_matches_numpy_on_exponential(self, rng):
        values = rng.exponential(scale=2.0, size=30_000)
        histogram = filled(values, bins=1000)
        for q in (0.5, 0.9, 0.95):
            assert histogram.quantile(q) == pytest.approx(
                np.quantile(values, q), rel=0.03
            )

    def test_overflow_region_interpolates(self):
        scheme = BinScheme(low=0.0, high=1.0, bins=10)
        histogram = Histogram(scheme)
        histogram.insert_block([0.5] * 90 + [5.0] * 10)
        q99 = histogram.quantile(0.99)
        assert 1.0 <= q99 <= 5.0

    def test_underflow_region_interpolates(self):
        scheme = BinScheme(low=1.0, high=2.0, bins=10)
        histogram = Histogram(scheme)
        histogram.insert_block([0.2] * 10 + [1.5] * 90)
        q05 = histogram.quantile(0.05)
        assert 0.2 <= q05 <= 1.0

    def test_invalid_q_rejected(self):
        histogram = filled([1.0, 2.0])
        with pytest.raises(HistogramError):
            histogram.quantile(1.2)

    def test_density_positive_at_median(self, rng):
        histogram = filled(rng.exponential(size=5000))
        assert histogram.density_at_quantile(0.5) > 0


class TestMerge:
    def test_merge_equals_union(self, rng):
        a_values = rng.exponential(size=4000)
        b_values = rng.exponential(size=6000)
        scheme = BinScheme.from_sample(
            np.concatenate([a_values, b_values]), bins=500
        )
        merged = filled(a_values, scheme)
        merged.merge_payload(filled(b_values, scheme).to_payload())
        union = filled(np.concatenate([a_values, b_values]), scheme)
        assert merged.count == union.count
        assert merged.mean == pytest.approx(union.mean)
        assert merged.std == pytest.approx(union.std)
        assert merged.quantile(0.95) == pytest.approx(union.quantile(0.95))
        assert np.array_equal(merged.counts, union.counts)

    def test_merge_rejects_different_schemes(self):
        a = Histogram(BinScheme(0.0, 1.0, 10))
        b = Histogram(BinScheme(0.0, 2.0, 10))
        with pytest.raises(HistogramError):
            a.merge_payload(b.to_payload())

    def test_merge_is_commutative(self, rng):
        scheme = BinScheme(0.0, 10.0, 100)
        a_values = rng.uniform(0, 8, size=1000)
        b_values = rng.uniform(2, 10, size=1000)
        ab = filled(a_values, scheme)
        ab.merge_payload(filled(b_values, scheme).to_payload())
        ba = filled(b_values, scheme)
        ba.merge_payload(filled(a_values, scheme).to_payload())
        assert ab.mean == pytest.approx(ba.mean)
        assert np.array_equal(ab.counts, ba.counts)


class TestPayload:
    def test_roundtrip(self, rng):
        histogram = filled(rng.exponential(size=2000))
        clone = Histogram.from_payload(histogram.to_payload())
        assert clone.count == histogram.count
        assert clone.mean == pytest.approx(histogram.mean)
        assert clone.quantile(0.9) == pytest.approx(histogram.quantile(0.9))
        assert np.array_equal(clone.counts, histogram.counts)

    def test_payload_is_plain_data(self, rng):
        import json

        payload = filled(rng.exponential(size=100)).to_payload()
        json.dumps(payload)  # must be JSON-serializable plain data


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=300
        )
    )
    def test_property_quantile_within_min_max(self, values):
        histogram = filled(values, bins=64)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            estimate = histogram.quantile(q)
            assert min(values) - 1e-6 <= estimate <= max(values) + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=200
        ),
        split=st.integers(min_value=1, max_value=199),
    )
    def test_property_merge_count_conserved(self, values, split):
        split = min(split, len(values) - 1)
        scheme = BinScheme.from_sample(values, bins=32)
        left = filled(values[:split], scheme)
        right = filled(values[split:], scheme)
        left.merge_payload(right.to_payload())
        assert left.count == len(values)
        assert left.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-9)


class TestMergeConsistency:
    """merge_payload() refuses a bad payload before touching any state."""

    def test_merge_mismatched_schemes_refuses_loudly(self, rng):
        left = filled(rng.exponential(size=100))
        right = filled(rng.exponential(size=100) * 10.0)
        before = left.to_payload()
        with pytest.raises(HistogramError, match="one bin scheme"):
            left.merge_payload(right.to_payload())
        assert left.to_payload() == before

    def test_payload_truncated_counts_rejected(self, rng):
        # Regression: a short counts list silently merged as a prefix,
        # desynchronizing count from the bin masses.
        histogram = filled(rng.exponential(size=200))
        payload = filled(
            rng.exponential(size=50), scheme=histogram.scheme
        ).to_payload()
        payload["counts"] = payload["counts"][:-3]
        before = histogram.to_payload()
        with pytest.raises(
            HistogramError, match="expected 100 bin counts, got 97"
        ):
            histogram.merge_payload(payload)
        assert histogram.to_payload() == before  # rejected before mutation

    def test_payload_count_invariant_enforced(self, rng):
        histogram = filled(rng.exponential(size=200))
        payload = filled(
            rng.exponential(size=50), scheme=histogram.scheme
        ).to_payload()
        payload["count"] += 7
        with pytest.raises(HistogramError, match="invariant"):
            histogram.merge_payload(payload)

    def test_payload_scheme_mismatch_rejected(self, rng):
        histogram = filled(rng.exponential(size=200))
        payload = filled(rng.exponential(size=50) * 10.0).to_payload()
        with pytest.raises(HistogramError, match="scheme"):
            histogram.merge_payload(payload)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        order=st.permutations(list(range(4))),
    )
    def test_property_payload_merge_order_independent(self, seed, order):
        # The master reduce must not care which slave reports first.
        rng = np.random.default_rng(seed)
        scheme = BinScheme(low=0.0, high=10.0, bins=32)
        payloads = [
            filled(rng.exponential(size=80), scheme=scheme).to_payload()
            for _ in range(4)
        ]
        base = Histogram(scheme)
        for payload in payloads:
            base.merge_payload(payload)
        permuted = Histogram(scheme)
        for index in order:
            permuted.merge_payload(payloads[index])
        assert permuted.count == base.count
        assert permuted.underflow == base.underflow
        assert permuted.overflow == base.overflow
        assert np.array_equal(permuted.counts, base.counts)
        assert permuted.mean == pytest.approx(base.mean, rel=1e-12)
        assert permuted.std == pytest.approx(base.std, rel=1e-9)
        assert permuted.min_seen == base.min_seen
        assert permuted.max_seen == base.max_seen


#: Payload edits whose masses are not ints: each one merged at the
#: parent commit, and an int64 cast would truncate the first silently.
NON_INT_MASSES = {
    "fractional counts": {"counts": [0.5] * 4, "count": 2},
    "bool counts": {"counts": [True, True, False, False], "count": 2},
    "one bool count": {"counts": [True, 1, 0, 0], "count": 2},
    "float count": {"count": 2.0},
    "bool underflow": {"underflow": False},
    "float overflow": {"overflow": 0.0},
}


def four_bin_payload(**edits):
    """A clean four-bin payload (two observations) with ``edits`` applied."""
    histogram = Histogram(BinScheme(low=0.0, high=1.0, bins=4))
    histogram.insert_block(np.array([0.1, 0.4]))
    return {**histogram.to_payload(), **edits}


class TestIntegerMasses:
    """Every mass that reaches the int64 counts is an int, never a bool."""

    @pytest.mark.parametrize("case", sorted(NON_INT_MASSES))
    def test_merge_payload_refuses_before_mutation(self, case):
        histogram = Histogram(BinScheme(low=0.0, high=1.0, bins=4))
        histogram.insert(0.7)
        before = histogram.to_payload()
        with pytest.raises(HistogramError, match="must be ints"):
            histogram.merge_payload(four_bin_payload(**NON_INT_MASSES[case]))
        assert histogram.to_payload() == before

    def test_merge_payload_refuses_negative_mass(self):
        histogram = Histogram(BinScheme(low=0.0, high=1.0, bins=4))
        with pytest.raises(HistogramError, match="negative bin mass"):
            histogram.merge_payload(
                four_bin_payload(counts=[3, -1, 0, 0], count=2)
            )
        assert histogram.count == 0

    @pytest.mark.parametrize("counts", [
        [0.5, 0.5, 0.5, 0.5],
        [True, False, False, False],
        np.array([1.0, 0.0, 0.0, 0.0]),
        np.array([True, False, False, False]),
        np.zeros((4, 2), dtype=np.int64),
    ], ids=["fractions", "bools", "float array", "bool array", "2-D array"])
    def test_counts_setter_refuses_non_int_counts(self, counts):
        histogram = Histogram(BinScheme(low=0.0, high=1.0, bins=4))
        with pytest.raises(HistogramError, match="must be ints"):
            histogram.counts = counts
        assert histogram.counts.tolist() == [0, 0, 0, 0]

    def test_counts_setter_checks_the_length(self):
        histogram = Histogram(BinScheme(low=0.0, high=1.0, bins=4))
        with pytest.raises(HistogramError, match="expected 4 bin counts"):
            histogram.counts = [1, 2, 3]

    def test_count_beyond_int64_is_refused(self):
        histogram = Histogram(BinScheme(low=0.0, high=1.0, bins=4))
        with pytest.raises(HistogramError, match="out of range"):
            histogram.counts = [2**63, 0, 0, 0]


class TestPayloadBoundary:
    """Inside, the counts are one int64 array; on the wire, plain ints."""

    def test_payload_counts_are_python_ints(self, rng):
        payload = filled(rng.exponential(size=500)).to_payload()
        assert {type(count) for count in payload["counts"]} == {int}
        json.dumps(payload)  # what payload_digest hashes
        payload["counts"][0] = np.int64(payload["counts"][0])
        with pytest.raises(TypeError):
            json.dumps(payload)

    def test_counts_is_a_copy(self, rng):
        histogram = filled(rng.exponential(size=500))
        before = histogram.to_payload()
        counts = histogram.counts
        counts += 1
        assert histogram.to_payload() == before

    def test_from_payload_round_trips_the_wire_list(self, rng):
        payload = filled(rng.exponential(size=500)).to_payload()
        assert Histogram.from_payload(payload).to_payload() == payload

    def test_from_payload_round_trips_a_little_endian_buffer(self, rng):
        # The checkpoint stores the counts as base64 of "<i8" bytes.
        payload = filled(rng.exponential(size=500)).to_payload()
        raw = np.asarray(payload["counts"], dtype="<i8").tobytes()
        buffered = {**payload, "counts": np.frombuffer(raw, dtype="<i8")}
        histogram = Histogram.from_payload(buffered)
        assert histogram.to_payload() == payload
        histogram.insert(histogram.min_seen)  # writable, not the buffer
        assert histogram.count == payload["count"] + 1
