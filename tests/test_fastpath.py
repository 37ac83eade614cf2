"""The vectorized fastpath engine: recurrences, gating, equivalence.

Three layers of guarantees are pinned here:

1. **Bit-equivalence of the batched stats primitives** —
   ``Histogram.insert_block`` and ``Statistic.observe_block`` must make
   exactly the decisions of the scalar ``insert``/``observe`` loops
   (hypothesis property tests over awkward block splits).
2. **Exactness of the recurrences** — the vectorized Lindley solution
   reproduces the naive scalar recurrence to fp tolerance and both G/G/c
   kernels, the heap scan and the lane-parallel scan, reproduce it
   bit-for-bit, across block boundaries and whichever kernel the guard
   picks for a block.
3. **Gating** — ``qualifies`` admits exactly the models the recurrences
   are exact for, forced ``engine="fastpath"`` raises on anything else,
   and ``engine="auto"`` fallback is bit-identical to ``engine="event"``
   (same histogram digests), which is what keeps every pre-PR digest
   valid.
"""

import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.histogram import BinScheme, Histogram, HistogramError
from repro.core.statistic import Statistic
from repro.datacenter.disciplines import LIFOQueue
from repro.datacenter.server import Server
from repro.distributions import Deterministic, Exponential, HyperExponential
from repro.engine import fastpath
from repro.engine.experiment import Experiment
from repro.engine.fastpath import (
    FastpathError,
    _ggc_scan,
    _heap_scan,
    _lane_scan,
    _lindley_block,
    qualifies,
    run_fastpath,
)
from repro.workloads.workload import Workload

#: ``REPRO_TEST_FULL=1`` widens the G/G/c kernel matrix and property runs.
FULL_SCALE = os.environ.get("REPRO_TEST_FULL") == "1"


def build_mm1(engine="event", seed=7, rho=0.6, metric="response",
              accuracy=0.05, cores=1, **kwargs):
    """An M/M/c experiment at per-core load ``rho`` (M/M/1 by default)."""
    experiment = Experiment(
        seed=seed, engine=engine, warmup_samples=200,
        calibration_samples=1000, **kwargs,
    )
    server = Server(cores=cores)
    workload = Workload(
        "mm1", Exponential(rate=rho * cores), Exponential(rate=1.0)
    )
    experiment.add_source(workload, target=server)
    if metric == "response":
        experiment.track_response_time(server, mean_accuracy=accuracy)
    else:
        experiment.track_waiting_time(server, mean_accuracy=accuracy)
    return experiment, server


# -- 1. batched stats primitives ---------------------------------------------


def split_blocks(values, cuts):
    """Split ``values`` into blocks at the (sorted, clipped) cut points."""
    values = np.asarray(values, dtype=float)
    bounds = sorted({min(max(cut, 0), values.size) for cut in cuts})
    edges = [0] + bounds + [values.size]
    return [
        values[start:end]
        for start, end in zip(edges[:-1], edges[1:])
        if end > start
    ]


class TestInsertBlockEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=50.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=400,
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=5),
    )
    def test_counts_and_moments_match_scalar(self, values, cuts):
        scheme = BinScheme(low=0.0, high=10.0, bins=37)
        scalar, block = Histogram(scheme), Histogram(scheme)
        for value in values:
            scalar.insert(value)
        for chunk in split_blocks(values, cuts):
            block.insert_block(chunk)
        assert block.count == scalar.count
        assert np.array_equal(block.counts, scalar.counts)
        assert block.underflow == scalar.underflow
        assert block.overflow == scalar.overflow
        assert block._sum == scalar._sum
        assert block._sum_sq == scalar._sum_sq
        assert block.min_seen == scalar.min_seen
        assert block.max_seen == scalar.max_seen
        assert block.to_payload() == scalar.to_payload()

    def test_non_finite_mid_block_inserts_prefix_then_raises(self):
        scheme = BinScheme(low=0.0, high=10.0, bins=10)
        scalar, block = Histogram(scheme), Histogram(scheme)
        values = [1.0, 2.0, float("nan"), 3.0]
        with pytest.raises(HistogramError):
            for value in values:
                scalar.insert(value)
        with pytest.raises(HistogramError):
            block.insert_block(np.asarray(values))
        assert block.to_payload() == scalar.to_payload()

    def test_empty_block_is_a_no_op(self):
        histogram = Histogram(BinScheme(0.0, 1.0, 4))
        histogram.insert_block(np.array([]))
        assert histogram.count == 0


def statistic_state(statistic):
    state = {
        "phase": statistic.phase,
        "observed": statistic.observed,
        "accepted": statistic.accepted,
        "lag": statistic.lag,
        "checks": statistic.convergence_checks,
        "since": statistic._since_accept,
        "next_check": statistic._next_check,
        "warmup_seen": statistic._warmup_seen,
    }
    if statistic.histogram is not None:
        state["histogram"] = statistic.histogram.to_payload()
    return state


class TestObserveBlockEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        cuts=st.lists(
            st.integers(min_value=0, max_value=30_000),
            min_size=1, max_size=8,
        ),
        warmup=st.sampled_from([0, 7, 200]),
        calibration=st.sampled_from([50, 400]),
    )
    def test_block_feed_matches_scalar_through_convergence(
        self, seed, cuts, warmup, calibration
    ):
        rng = np.random.default_rng(seed)
        values = rng.exponential(size=30_000)

        def fresh():
            return Statistic(
                "metric", mean_accuracy=0.05, warmup_samples=warmup,
                calibration_samples=calibration, bins=100,
            )

        scalar, block = fresh(), fresh()
        for value in values:
            scalar.observe(float(value))
        for chunk in split_blocks(values, cuts):
            block.observe_block(chunk)
        assert statistic_state(block) == statistic_state(scalar)

    def test_one_element_blocks_equal_scalar(self):
        rng = np.random.default_rng(3)
        values = rng.exponential(size=4000)
        scalar = Statistic("m", warmup_samples=10, calibration_samples=50)
        block = Statistic("m", warmup_samples=10, calibration_samples=50)
        for value in values:
            scalar.observe(float(value))
            block.observe_block(np.array([value]))
        assert statistic_state(block) == statistic_state(scalar)


# -- 2. the recurrences -------------------------------------------------------


def scalar_lindley(gaps, services, w0=0.0, s0=0.0):
    """The naive Lindley loop, carried the same way as the fast path."""
    waits = []
    w_prev, s_prev = w0, s0
    for gap, service in zip(gaps, services):
        wait = max(0.0, w_prev + s_prev - gap)
        waits.append(wait)
        w_prev, s_prev = wait, service
    return np.asarray(waits)


class TestLindleyBlock:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=1, max_value=500),
        cut=st.integers(min_value=0, max_value=500),
    )
    def test_matches_scalar_recurrence_across_block_boundary(
        self, seed, n, cut
    ):
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.2, size=n)
        services = rng.exponential(1.0, size=n)
        expected = scalar_lindley(gaps, services)
        cut = min(cut, n)
        carry = (0.0, 0.0, 0.0)
        parts = []
        for chunk in (slice(0, cut), slice(cut, n)):
            if gaps[chunk].size:
                waits, carry = _lindley_block(
                    gaps[chunk], services[chunk], carry
                )
                parts.append(waits)
        got = np.concatenate(parts)
        # The reflected-walk solution sums in a different order than the
        # scalar max-recurrence, so agreement is to fp tolerance, not
        # bit-exact (the G/G/c scan below IS bit-exact — it does the
        # same arithmetic as the reference).
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


def scalar_ggc(arrivals, services, k):
    """Reference next-free-server recurrence with an explicit free list.

    Returns the waits and the free list as the last job left it.
    """
    free = [0.0] * k
    waits = []
    for arrival, service in zip(arrivals, services):
        index = min(range(k), key=lambda j: free[j])
        start = max(arrival, free[index])
        waits.append(start - arrival)
        free[index] = start + service
    return np.asarray(waits, dtype=float), free


def is_heap(free):
    return all(free[(j - 1) // 2] <= free[j] for j in range(1, len(free)))


#: Gaps and service times for the property test: a small pool of exact
#: values makes zero gaps (batched arrivals), zero and repeated service
#: times — ties on free times — common instead of measure-zero.
DURATIONS = st.one_of(
    st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)


class TestGgcKernels:
    @pytest.mark.parametrize("k", [2, 3, 4, 16, 17, 64])
    def test_scan_matches_reference(self, k):
        rng = np.random.default_rng(11)
        n = 2000
        gaps = rng.exponential(1.0 / (0.8 * k), size=n)
        services = rng.exponential(1.0, size=n)
        expected, _ = scalar_ggc(np.cumsum(gaps), services, k)
        waits, (clock, free) = _heap_scan(gaps, services, (0.0, [0.0] * k))
        assert np.array_equal(waits, expected)
        assert clock == np.cumsum(gaps)[-1]
        assert len(free) == k

    def test_kernel_state_carries_across_blocks(self):
        k = 3
        rng = np.random.default_rng(13)
        n = 1000
        gaps = rng.exponential(0.4, size=n)
        services = rng.exponential(1.0, size=n)
        waits_one, carry = _heap_scan(
            gaps[:400], services[:400], (0.0, [0.0] * k)
        )
        # Arrival times restart their running sum from the carried clock
        # at each block, so the reference gets them summed the same way.
        arrivals = np.concatenate(
            [np.cumsum(gaps[:400]), np.cumsum(gaps[400:]) + carry[0]]
        )
        expected, _ = scalar_ggc(arrivals, services, k)
        # What crosses the boundary is the clock plus a heap-ordered
        # free list, used as it stands by the next block.
        assert is_heap(carry[1])
        waits_two, _ = _heap_scan(gaps[400:], services[400:], carry)
        assert np.array_equal(
            np.concatenate([waits_one, waits_two]), expected
        )

    def test_equal_free_times_do_not_change_waits(self):
        # Batches of four simultaneous arrivals with constant service on
        # three cores: after every batch two or three cores free at the
        # same instant, so the reference's lowest-index pick and the
        # heap's pick differ in *which* core serves — and must not
        # differ in any wait.
        k, n = 3, 400
        gaps = np.tile([1.0, 0.0, 0.0, 0.0], n // 4)
        services = Deterministic(2.0).sample_block(
            np.random.default_rng(0), n
        )
        expected, _ = scalar_ggc(np.cumsum(gaps), services, k)
        waits, (_, free) = _heap_scan(gaps, services, (0.0, [0.0] * k))
        assert np.array_equal(waits, expected)
        assert len(set(free)) < k

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=64),
        jobs=st.lists(
            st.tuples(DURATIONS, DURATIONS), min_size=1, max_size=200
        ),
        cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=4),
    )
    def test_scan_equals_reference_under_ties_and_any_block_cut(
        self, k, jobs, cuts
    ):
        gaps = np.array([gap for gap, _ in jobs])
        services = np.array([service for _, service in jobs])
        carry = (0.0, [0.0] * k)
        arrivals, waits = [], []
        for gap_block, service_block in zip(
            split_blocks(gaps, cuts), split_blocks(services, cuts)
        ):
            # The reference gets arrival times summed as the kernel sums
            # them: a running sum per block, restarted from the clock.
            arrivals.append(np.cumsum(gap_block) + carry[0])
            block_waits, carry = _heap_scan(gap_block, service_block, carry)
            waits.append(block_waits)
        arrivals, waits = np.concatenate(arrivals), np.concatenate(waits)
        expected, expected_free = scalar_ggc(arrivals, services, k)
        assert waits.dtype == np.float64
        assert np.array_equal(waits, expected)
        # array_equal holds -0.0 equal to 0.0; a job that does not wait
        # must wait exactly +0.0.
        assert not np.signbit(waits).any()
        clock, free = carry
        assert clock == arrivals[-1]
        assert is_heap(free)
        assert sorted(free) == sorted(expected_free)

    def test_scan_does_not_box_its_inputs(self):
        # A 32 768-job block peaks at 1.5 MiB: the arrival times, the
        # free times the comprehension emits and the array made of them.
        # A boxed copy of an input (tolist()) is another 1 MiB of floats.
        rng = np.random.default_rng(17)
        gaps = rng.exponential(1.0 / 3.2, size=fastpath.BLOCK_JOBS)
        services = rng.exponential(1.0, size=fastpath.BLOCK_JOBS)
        tracemalloc.start()
        try:
            _heap_scan(gaps, services, (0.0, [0.0] * 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


def clamped(free, clock):
    """A free list as the rest of the path can see it."""
    return sorted(max(f, clock) for f in free)


def lane_calls(table, cuts, inner, group, lane_jobs):
    """Cut the ``(gap, service)`` rows of ``table`` into :func:`_lane_scan`
    calls of one to ``group`` blocks each.

    The calls are cut at ``cuts``, anywhere.  Inside a call the blocks
    are cut at whole lanes (``inner`` counts them) so that only a call's
    last block may end mid-lane, as the kernel requires.
    """
    n = len(table)
    bounds = sorted({min(max(cut, 0), n) for cut in cuts} - {0, n})
    for low, high in zip([0] + bounds, bounds + [n]):
        call = table[low:high]
        lanes = len(call) // lane_jobs
        inside = sorted(
            {min(cut, lanes) * lane_jobs for cut in inner[:group - 1]}
            - {0, len(call)}
        )
        yield [
            (
                np.ascontiguousarray(call[start:end, 0]),
                np.ascontiguousarray(call[start:end, 1]),
            )
            for start, end in zip([0] + inside, inside + [len(call)])
        ]


class TestLaneScan:
    @settings(max_examples=1000 if FULL_SCALE else 150, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=8),
        lane_jobs=st.integers(min_value=4, max_value=8),
        jobs=st.lists(
            st.tuples(DURATIONS, DURATIONS), min_size=16, max_size=300
        ),
        load=st.sampled_from([1.0, 2.0, 4.0, 8.0]),
        cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=4),
        group=st.integers(min_value=1, max_value=3),
        inner=st.lists(st.integers(min_value=0, max_value=40), max_size=2),
    )
    def test_lanes_equal_reference_under_ties_and_any_block_cut(
        self, k, lane_jobs, jobs, load, cuts, group, inner
    ):
        """Calls of one to three blocks, cut anywhere, against the heap
        scan block by block.  Lanes of 4 to 8 jobs, and service times
        scaled by up to 8 (a power of two, so ties stay ties), make
        repairs and chains of them common, across a block's end too.

        Each carried free list is compared with the heap scan's after
        clamping each entry at the clock.  Every later arrival is at or
        after the clock, and a job starts at ``max(arrival, min(free))``,
        so a free time below the clock acts exactly as the clock does: no
        later start, wait or departure can tell two lists apart that
        agree once clamped.  The lanes may leave such stale entries (a
        lane started from an empty system keeps its zeros until used).
        """
        table = np.array(jobs) * [1.0, load]
        # Room for every lane of the table and for its longest block.
        lanes = len(table) // lane_jobs + 1
        buffers = fastpath._lane_buffers(lanes, lane_jobs)
        carry = heap_carry = (0.0, [0.0] * k)
        for blocks in lane_calls(table, cuts, inner, group, lane_jobs):
            scanned = list(_lane_scan(blocks, carry, buffers))
            assert len(scanned) == len(blocks)
            for (gaps, services), (waits, block_services, carry, _) in zip(
                blocks, scanned
            ):
                expected, heap_carry = _heap_scan(gaps, services, heap_carry)
                assert waits.dtype == np.float64
                assert np.array_equal(waits, expected)
                assert not np.signbit(waits).any()
                assert np.array_equal(block_services, services)
                clock, free = carry
                assert clock == heap_carry[0]
                assert clamped(free, clock) == clamped(heap_carry[1], clock)

    def test_a_backlog_repairs_every_lane_in_one_chain(self):
        # Every core busy far past the group: lane 0 and lane 1 (which
        # starts from lane 0's end) are exact, and every lane after them
        # started from an empty system that the backlog never empties
        # into, so each repair fails the next lane's check too, into and
        # through the second block.
        k, n, lane_jobs = 3, 200, 4
        rng = np.random.default_rng(19)
        blocks = [
            (rng.exponential(1.0, size=n), rng.exponential(1.0, size=n))
            for _ in range(2)
        ]
        heap_carry = (0.0, [1e4] * k)
        buffers = fastpath._lane_buffers(2 * n // lane_jobs, lane_jobs)
        scanned = _lane_scan(blocks, (0.0, [1e4] * k), buffers)
        repaired = []
        for (gaps, services), (waits, _, _, count) in zip(blocks, scanned):
            expected, heap_carry = _heap_scan(gaps, services, heap_carry)
            assert np.array_equal(waits, expected)
            repaired.append(count)
        assert repaired == [n // lane_jobs - 2, n // lane_jobs]

    def test_inner_blocks_must_be_whole_lanes(self):
        blocks = [(np.ones(10), np.ones(10)), (np.ones(8), np.ones(8))]
        buffers = fastpath._lane_buffers(8, 4)
        with pytest.raises(ValueError, match="mid-lane"):
            next(_lane_scan(blocks, (0.0, [0.0] * 2), buffers))

    def test_lanes_stay_within_their_memory_bound(self):
        # One group of three 32 768-job blocks: the (3, 128, 768) buffers
        # (2.25 MiB), one block's draws at a time (0.5 MiB: each block's
        # arrival times are summed in the start-time buffer) and each
        # block's waits and services as the scan hands them over.
        rng = np.random.default_rng(17)

        def draws():
            for _ in range(fastpath._LANE_GROUP_BLOCKS):
                yield (
                    rng.exponential(1.0 / 3.2, size=fastpath.BLOCK_JOBS),
                    rng.exponential(1.0, size=fastpath.BLOCK_JOBS),
                )

        tracemalloc.start()
        try:
            buffers = fastpath._lane_buffers()
            scanned = _lane_scan(draws(), (0.0, [0.0] * 4), buffers)
            for block in scanned:
                del block
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


MATRIX_CORES = [2, 4, 8, 16] + ([32, 64] if FULL_SCALE else [])
MATRIX_RHOS = [0.5, 0.8, 0.95] + ([0.99] if FULL_SCALE else [])
MATRIX_BLOCKS = 20 if FULL_SCALE else 3


def mmc_draw(rng, cores, rho):
    """A block drawer for :func:`_ggc_scan`: gaps, then services."""
    def draw(n):
        return (
            rng.exponential(1.0 / (rho * cores), n), rng.exponential(1.0, n)
        )
    return draw


def ggc_blocks(cores, rho, blocks, seed, jobs=None):
    """Drive :func:`_ggc_scan` as ``run_fastpath`` does, through
    ``blocks`` full blocks (or ``jobs`` jobs); yields ``(waits, carry)``
    block by block."""
    draw = mmc_draw(np.random.default_rng(seed), cores, rho)
    buffers = fastpath._lane_buffers()
    carry = (0.0, [0.0] * cores, 1)
    left = blocks * fastpath.BLOCK_JOBS if jobs is None else jobs
    while left:
        for waits, _, carry in _ggc_scan(draw, left, carry, buffers):
            left -= waits.shape[0]
            yield waits, carry


def heap_blocks(cores, rho, blocks, seed, jobs=None):
    """The heap scan's ``(waits, carry)`` over the same draws."""
    draw = mmc_draw(np.random.default_rng(seed), cores, rho)
    carry = (0.0, [0.0] * cores)
    left = blocks * fastpath.BLOCK_JOBS if jobs is None else jobs
    while left:
        waits, carry = _heap_scan(
            *draw(min(left, fastpath.BLOCK_JOBS)), carry
        )
        left -= waits.shape[0]
        yield waits, carry


def spy_kernels(monkeypatch):
    """Record the kernel each block takes and the blocks of each lane call."""
    kernels, groups = [], []
    lane_scan, heap_scan = fastpath._lane_scan, fastpath._heap_scan

    def lanes(blocks, carry, buffers):
        blocks = list(blocks)
        groups.append(len(blocks))
        for scanned in lane_scan(blocks, carry, buffers):
            kernels.append("lanes")
            yield scanned

    def heap(*args):
        kernels.append("heap")
        return heap_scan(*args)

    monkeypatch.setattr(fastpath, "_lane_scan", lanes)
    monkeypatch.setattr(fastpath, "_heap_scan", heap)
    return kernels, groups


class TestGgcScan:
    @pytest.mark.parametrize("cores", MATRIX_CORES)
    @pytest.mark.parametrize("rho", MATRIX_RHOS)
    def test_blocks_equal_heap_scan(self, cores, rho):
        seed = cores * 1000 + round(rho * 100)
        pairs = zip(
            ggc_blocks(cores, rho, MATRIX_BLOCKS, seed),
            heap_blocks(cores, rho, MATRIX_BLOCKS, seed),
        )
        for (waits, carry), (expected, heap_carry) in pairs:
            assert np.array_equal(waits, expected)
            assert carry[0] == heap_carry[0]
            assert clamped(carry[1], carry[0]) == clamped(
                heap_carry[1], heap_carry[0]
            )

    def test_guard_switches_engines_between_blocks(self, monkeypatch):
        # At rho = 0.95 about half the lanes need repair, so a lane block
        # sends the next _LANE_REPROBE_BLOCKS to the heap scan, and the
        # block after them probes the lanes again, alone: each block
        # takes the kernel it took before lane blocks stepped in groups.
        # c = 16 never takes the lanes; at rho = 0.8 the probe passes and
        # the blocks after it step three at a time.
        monkeypatch.setattr(fastpath, "_LANE_REPROBE_BLOCKS", 2)
        kernels, groups = spy_kernels(monkeypatch)
        cases = [
            (4, 0.95, ["lanes", "heap", "heap"] * 2, [1, 1]),
            (16, 0.95, ["heap"] * 6, []),
            (16, 0.8, ["heap"] * 6, []),
            (4, 0.8, ["lanes"] * 6, [1, 3, 2]),
        ]
        for cores, rho, expected_kernels, expected_groups in cases:
            del kernels[:], groups[:]
            pairs = zip(
                ggc_blocks(cores, rho, 6, 23),
                heap_blocks(cores, rho, 6, 23),
            )
            for (waits, _), (expected, _) in pairs:
                assert np.array_equal(waits, expected)
            assert kernels == expected_kernels, (cores, rho)
            assert groups == expected_groups, (cores, rho)

    def test_a_failing_block_holds_the_rest_of_its_group(self, monkeypatch):
        # A probe at rho = 0.5 passes; in the group after it the first
        # block is overloaded (services x 4), so most of its lanes need
        # repair.  The two blocks after it keep their lanes but count the
        # hold down as the heap scan does one block at a time, so the
        # carries agree block by block.
        def run():
            rng = np.random.default_rng(31)
            scales = iter([1.0, 4.0, 1.0, 1.0])

            def draw(n):
                gaps = rng.exponential(1.0 / 2.0, n)
                return gaps, rng.exponential(next(scales), n)

            buffers = fastpath._lane_buffers()
            carry, left, out = (0.0, [0.0] * 4, 1), 4 * fastpath.BLOCK_JOBS, []
            while left:
                for waits, _, carry in _ggc_scan(draw, left, carry, buffers):
                    left -= waits.shape[0]
                    clock, free, hold = carry
                    out.append((waits, clock, clamped(free, clock), hold))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "_LANE_GROUP_BLOCKS", 1)
            kernels, _ = spy_kernels(patch)
            expected = run()
        assert kernels == ["lanes", "lanes", "heap", "heap"]
        kernels, groups = spy_kernels(monkeypatch)
        got = run()
        assert kernels == ["lanes"] * 4 and groups == [1, 3]
        holds = [hold for *_, hold in got]
        assert holds == [0, fastpath._LANE_REPROBE_BLOCKS + 1,
                         fastpath._LANE_REPROBE_BLOCKS,
                         fastpath._LANE_REPROBE_BLOCKS - 1]
        for (waits, *state), (expected_waits, *expected_state) in zip(
            got, expected
        ):
            assert np.array_equal(waits, expected_waits)
            assert state == expected_state

    def test_short_blocks_and_many_cores_take_the_heap_scan(self, monkeypatch):
        def fail(*args):
            raise AssertionError("lanes ran")

        monkeypatch.setattr(fastpath, "_lane_scan", fail)
        for cores, n in ((16, fastpath.BLOCK_JOBS), (4, 1000)):
            pairs = zip(
                ggc_blocks(cores, 0.8, 0, 29, jobs=n),
                heap_blocks(cores, 0.8, 0, 29, jobs=n),
            )
            for (waits, _), (expected, _) in pairs:
                assert np.array_equal(waits, expected)


# -- 3. gating and engine selection -------------------------------------------


class TestQualification:
    def test_plain_mm1_qualifies(self):
        experiment, _ = build_mm1()
        assert qualifies(experiment)

    def test_multi_core_fcfs_qualifies(self):
        experiment = Experiment(seed=1)
        server = Server(cores=8)
        experiment.add_source(
            Workload("mmk", Exponential(4.0), Exponential(1.0)), server
        )
        experiment.track_waiting_time(server)
        assert qualifies(experiment)

    def test_non_fcfs_discipline_disqualifies(self):
        experiment = Experiment(seed=1)
        server = Server(discipline=LIFOQueue())
        experiment.add_source(
            Workload("m", Exponential(0.5), Exponential(1.0)), server
        )
        experiment.track_response_time(server)
        verdict = qualifies(experiment)
        assert not verdict and "FCFS" in verdict.reason

    def test_processor_sharing_disqualifies(self):
        from repro.datacenter.processor_sharing import ProcessorSharingServer

        experiment = Experiment(seed=1)
        station = ProcessorSharingServer()
        experiment.add_source(
            Workload("ps", Exponential(0.5), Exponential(1.0)), station
        )
        experiment.track_response_time(station)
        verdict = qualifies(experiment)
        assert not verdict and "Server" in verdict.reason

    def test_balancer_topology_disqualifies(self):
        from repro.datacenter.balancers import RandomBalancer

        experiment = Experiment(seed=1)
        servers = [Server(name=f"s{i}") for i in range(2)]
        balancer = RandomBalancer(servers)
        experiment.add_source(
            Workload("lb", Exponential(0.5), Exponential(1.0)), balancer
        )
        experiment.track_response_time(balancer)
        assert not qualifies(experiment)

    def test_extra_completion_listener_disqualifies(self):
        experiment, server = build_mm1()
        server.on_complete(lambda job, srv: None)
        verdict = qualifies(experiment)
        assert not verdict and "listener" in verdict.reason

    def test_custom_metric_disqualifies(self):
        experiment, _ = build_mm1()
        experiment.track("energy", mean_accuracy=0.1)
        assert not qualifies(experiment)

    def test_tracer_disqualifies(self):
        from repro.observability import Tracer

        experiment, _ = build_mm1()
        experiment.attach_tracer(Tracer.to_memory())
        assert not qualifies(experiment)

    def test_bounded_source_disqualifies(self):
        experiment = Experiment(seed=1)
        server = Server()
        experiment.add_source(
            Workload("m", Exponential(0.5), Exponential(1.0)),
            server, max_jobs=100,
        )
        experiment.track_response_time(server)
        assert not qualifies(experiment)

    def test_started_experiment_disqualifies(self):
        experiment, _ = build_mm1()
        experiment.run_until_calibrated(max_events=5000)
        assert not qualifies(experiment)

    def test_extra_scheduled_event_disqualifies(self):
        experiment, _ = build_mm1()
        experiment.simulation.schedule_at(10.0, lambda: None)
        verdict = qualifies(experiment)
        assert not verdict and "event queue" in verdict.reason

    def test_forced_fastpath_raises_on_disqualified_model(self):
        experiment = Experiment(seed=1, engine="fastpath")
        server = Server(discipline=LIFOQueue())
        experiment.add_source(
            Workload("m", Exponential(0.5), Exponential(1.0)), server
        )
        experiment.track_response_time(server)
        with pytest.raises(FastpathError, match="FCFS"):
            experiment.run(max_events=10_000)


class TestEngineSelection:
    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="engine"):
            Experiment(engine="warp")

    def test_fastpath_run_marks_engine_in_extras(self):
        experiment, _ = build_mm1(engine="fastpath")
        result = experiment.run(max_events=400_000)
        assert result.extras.get("engine") == "fastpath"
        assert result.jobs_generated * 2 == result.events_processed
        assert result.sim_time > 0

    def test_auto_uses_fastpath_when_qualified(self):
        experiment, _ = build_mm1(engine="auto")
        result = experiment.run(max_events=400_000)
        assert result.extras.get("engine") == "fastpath"

    def test_auto_fallback_is_bit_identical_to_event(self):
        from repro.datacenter.processor_sharing import ProcessorSharingServer
        from repro.parallel.protocol import payload_digest

        def run_ps(engine):
            experiment = Experiment(
                seed=5, engine=engine, warmup_samples=100,
                calibration_samples=500,
            )
            station = ProcessorSharingServer()
            experiment.add_source(
                Workload("ps", Exponential(0.5), Exponential(1.0)), station
            )
            statistic = experiment.track_response_time(
                station, mean_accuracy=0.1
            )
            result = experiment.run(max_events=200_000)
            return result, payload_digest(statistic.histogram.to_payload())

        event_result, event_digest = run_ps("event")
        auto_result, auto_digest = run_ps("auto")
        assert auto_digest == event_digest
        assert auto_result.events_processed == event_result.events_processed
        assert "engine" not in auto_result.extras

    def test_fastpath_respects_event_budget(self):
        experiment, _ = build_mm1(engine="fastpath", accuracy=0.0001)
        result = experiment.run(max_events=10_000)
        assert not result.converged
        assert result.events_processed <= 10_000

    def test_fastpath_rejects_max_sim_time_arg(self):
        experiment, _ = build_mm1(engine="fastpath")
        with pytest.raises(FastpathError, match="max_sim_time"):
            experiment.run(max_sim_time=50.0)

    def test_run_fastpath_requires_qualification(self):
        experiment, server = build_mm1()
        server.on_arrival(lambda job, srv: None)
        with pytest.raises(FastpathError):
            run_fastpath(experiment)


class TestStatisticalEquivalence:
    def test_gg1_hyperexponential_matches_pollaczek_khinchine(self):
        from repro import theory

        service = HyperExponential.from_mean_cv(1.0, 2.0)
        experiment = Experiment(
            seed=21, engine="fastpath", warmup_samples=200,
            calibration_samples=1000,
        )
        server = Server()
        experiment.add_source(
            Workload("mg1", Exponential(rate=0.5), service), server
        )
        experiment.track_waiting_time(server, mean_accuracy=0.02)
        result = experiment.run()
        assert result.converged
        expected = theory.mg1_mean_waiting(0.5, service)
        assert result["waiting_time"].mean == pytest.approx(
            expected, rel=0.15
        )

    def test_speed_scaling_is_applied(self):
        from repro import theory

        experiment = Experiment(
            seed=2, engine="fastpath", warmup_samples=200,
            calibration_samples=1000,
        )
        server = Server(speed=2.0)
        # Effective service rate is 2.0: rho = 0.6.
        experiment.add_source(
            Workload("m", Exponential(rate=1.2), Exponential(rate=1.0)),
            server,
        )
        experiment.track_response_time(server, mean_accuracy=0.02)
        result = experiment.run()
        expected = theory.mm1_mean_response(1.2, 2.0)
        assert result["response_time"].mean == pytest.approx(
            expected, rel=0.1
        )


def budget_bound(cores, rho=0.8):
    """A fast-path M/M/c run whose target no budget here reaches."""
    experiment, _ = build_mm1(
        engine="fastpath", seed=3, rho=rho, accuracy=1e-5, cores=cores,
    )
    return experiment


def outcome(result):
    from repro.engine.report import result_to_dict

    fields = result_to_dict(result)
    del fields["wall_time"]
    return fields


BLOCK_EVENTS = fastpath.BLOCK_JOBS * fastpath.EVENTS_PER_JOB


class TestResumedRun:
    @pytest.mark.parametrize("cores", [1, 4])
    def test_second_run_continues_the_first(self, cores):
        expected = outcome(budget_bound(cores).run(max_events=3 * BLOCK_EVENTS))
        experiment = budget_bound(cores)
        first = experiment.run(max_events=BLOCK_EVENTS)
        assert first.events_processed == BLOCK_EVENTS
        # Same block partition as the single run, so bit-equal to it.
        resumed = experiment.run(max_events=3 * BLOCK_EVENTS)
        assert outcome(resumed) == expected
        assert experiment.sources[0].generated == 3 * fastpath.BLOCK_JOBS
        # The budget is cumulative: once spent, a further call is a no-op.
        assert outcome(experiment.run(max_events=3 * BLOCK_EVENTS)) == expected

    def test_resume_keeps_the_guard_countdown(self):
        # At rho = 0.95 the first block's lanes mostly need repair, so the
        # run stops with the heap scan owed more blocks; the resumed run
        # must take up both the free list and that countdown.
        expected = outcome(budget_bound(4, 0.95).run(max_events=4 * BLOCK_EVENTS))
        experiment = budget_bound(4, 0.95)
        experiment.run(max_events=2 * BLOCK_EVENTS)
        assert experiment._fastpath_carry[2] > 0
        resumed = experiment.run(max_events=4 * BLOCK_EVENTS)
        assert outcome(resumed) == expected


def path_state(experiment):
    """What a run leaves for the next one: the job count, both streams'
    states, and the carry, its free list clamped at the clock."""
    source = experiment.sources[0]
    clock, free, hold = experiment._fastpath_carry
    return {
        "generated": source.generated,
        "observed": [statistic.observed for statistic in experiment.stats],
        "arrival_rng": source._next_gap.rng.bit_generator.state,
        "service_rng": source._next_size.rng.bit_generator.state,
        "carry": (clock, clamped(free, clock), hold),
    }


class TestLaneGroups:
    """Lane blocks step in groups; every result is what a run that steps
    one block at a time (the group size patched to 1) leaves."""

    @staticmethod
    def block_at_a_time(monkeypatch, run):
        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "_LANE_GROUP_BLOCKS", 1)
            return run()

    @pytest.mark.parametrize(
        "seed, accuracy, position",
        [(3, 0.008, 0), (5, 0.008, 1), (5, 0.006, 0), (3, 0.004, 1)],
        ids=["first-of-first", "second-of-first", "first-of-second",
             "second-of-second"],
    )
    def test_convergence_mid_group_rewinds_the_streams(
        self, monkeypatch, seed, accuracy, position
    ):
        def run():
            experiment, _ = build_mm1(
                engine="fastpath", seed=seed, rho=0.8, accuracy=accuracy,
                cores=4,
            )
            result = experiment.run()
            return experiment, result

        reference, expected = self.block_at_a_time(monkeypatch, run)
        experiment, result = run()
        # Block 0 probes the lanes alone and groups start at block 1: the
        # run converged at the given position of a three-block group.
        blocks = expected.events_processed // BLOCK_EVENTS
        assert expected.converged and (blocks - 2) % 3 == position
        assert outcome(result) == outcome(expected)
        assert path_state(experiment) == path_state(reference)

    def test_budget_cut_runs_equal_block_at_a_time(self, monkeypatch):
        # Budgets that end mid-block: the first run ends on a lane block
        # of 20 000 jobs (156 lanes and a 32-job scalar tail), the second
        # on a heap scan block of 13 545 jobs after two groups of three.
        budgets = [
            2 * (2 * fastpath.BLOCK_JOBS + 20000),
            2 * (9 * fastpath.BLOCK_JOBS + 777),
        ]

        def run():
            experiment = budget_bound(4)
            return experiment, [
                (outcome(experiment.run(max_events=budget)),
                 path_state(experiment))
                for budget in budgets
            ]

        _, expected = self.block_at_a_time(monkeypatch, run)
        kernels, groups = spy_kernels(monkeypatch)
        _, got = run()
        assert got == expected
        assert groups == [1, 1, 1, 3, 3]
        assert kernels == ["lanes"] * 9 + ["heap"]


#: ``engine="fastpath"`` outcomes: everything ``result_to_dict`` reports
#: except wall time, plus histogram digests.  The rows at per-core load
#: 0.8 without a ``rho`` key for c = 2, 4, 16 and 20 were recorded at
#: commit 275bd65, when core counts up to 16 still ran the generated
#: unrolled kernel; the c = 8 rows and the ``rho`` = 0.95 rows by the
#: heap scan, before the lane-parallel kernel existed.
PINS = json.loads(
    (Path(__file__).parent / "fixtures" / "fastpath_pins.json").read_text()
)


def pin_id(pin):
    rho = f"-rho{pin['rho']}" if "rho" in pin else ""
    return f"c{pin['cores']}-seed{pin['seed']}{rho}"


def pinned_outcome(cores, seed, rho=0.8):
    """The fixture's ``result`` for one seeded M/M/c run on the fast path."""
    from repro.engine.report import result_to_dict
    from repro.parallel.protocol import payload_digest

    experiment = Experiment(
        seed=seed, engine="fastpath", warmup_samples=200,
        calibration_samples=1000,
    )
    server = Server(cores=cores)
    experiment.add_source(
        Workload(
            "mmc", Exponential(rate=rho * cores), Exponential(rate=1.0)
        ),
        target=server,
    )
    experiment.track_response_time(
        server, mean_accuracy=0.02, quantiles={0.95: 0.05}
    )
    experiment.track_waiting_time(server, mean_accuracy=0.05)
    got = result_to_dict(experiment.run())
    del got["wall_time"]
    got["histogram_digests"] = {
        statistic.name: payload_digest(statistic.histogram.to_payload())
        for statistic in experiment.stats
    }
    # Through JSON so tuples and float keys take the fixture's form;
    # floats round-trip exactly.
    return json.loads(json.dumps(got))


class TestPinnedResults:
    @pytest.mark.parametrize("pin", PINS, ids=pin_id)
    def test_result_equals_recorded_parent_values(self, pin):
        got = pinned_outcome(pin["cores"], pin["seed"], pin.get("rho", 0.8))
        assert got == pin["result"]


class TestEngineKnobPlumbing:
    def test_config_engine_key(self):
        from repro.config import build_experiment

        config = {
            "seed": 4,
            "engine": "fastpath",
            "workload": {
                "interarrival": {"type": "exponential", "rate": 0.5},
                "service": {"type": "exponential", "rate": 1.0},
            },
            "metrics": [{"kind": "response_time"}],
        }
        experiment = build_experiment(config)
        assert experiment.engine == "fastpath"
        assert build_experiment(config, engine="event").engine == "event"

    def test_cli_parses_engine_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "conf.json", "--engine", "fastpath"]
        )
        assert args.engine == "fastpath"

    def test_sweep_spec_engine_roundtrip(self):
        from repro.sweep import SweepSpec

        spec = SweepSpec(
            name="s", kind="config", engine="fastpath",
            base={"workload": {"name": "web"}},
            axes={"workload.load": [0.5]},
        )
        assert SweepSpec.from_dict(spec.to_dict()).engine == "fastpath"

    def test_sweep_spec_rejects_unknown_engine(self):
        from repro.sweep import SweepSpec
        from repro.sweep.spec import SweepError

        with pytest.raises(SweepError, match="engine"):
            SweepSpec(
                name="s", kind="config", engine="warp",
                base={"workload": {"name": "web"}},
                axes={"workload.load": [0.5]},
            )

    def test_default_engine_leaves_point_digests_unchanged(self):
        """The digest-stability contract: every pre-PR sweep cache entry
        must still be addressable, so the default engine adds no key."""
        from repro.sweep import SweepSpec

        spec = SweepSpec(
            name="s", kind="config",
            base={"workload": {"name": "web"}},
            axes={"workload.load": [0.5]},
        )
        point = spec.points()[0]
        payload = point.job_payload(spec)
        assert "engine" not in payload
        fast = SweepSpec(
            name="s", kind="config", engine="fastpath",
            base={"workload": {"name": "web"}},
            axes={"workload.load": [0.5]},
        )
        fast_payload = fast.points()[0].job_payload(fast)
        assert fast_payload["engine"] == "fastpath"
        assert spec.point_digest(point) != fast.point_digest(
            fast.points()[0]
        )

    def test_sweep_runner_applies_engine_to_config_points(self, tmp_path):
        from repro.sweep import SweepRunner, SweepSpec

        base = {
            "workload": {
                "interarrival": {"type": "exponential", "rate": 0.5},
                "service": {"type": "exponential", "rate": 1.0},
            },
            "metrics": [{"kind": "response_time", "mean_accuracy": 0.1}],
            "warmup_samples": 100,
            "calibration_samples": 500,
        }
        spec = SweepSpec(
            name="fast", kind="config", engine="fastpath", base=base,
            axes={"warmup_samples": [100]}, max_events=400_000,
        )
        result = SweepRunner(spec, backend="serial").run()
        assert result.points[0].payload["extras"]["engine"] == "fastpath"
