"""The vectorized fastpath engine: recurrences, gating, equivalence.

Three layers of guarantees are pinned here:

1. **Bit-equivalence of the batched stats primitives** —
   ``Histogram.insert_block`` and ``Statistic.observe_block`` must make
   exactly the decisions of the scalar ``insert``/``observe`` loops
   (hypothesis property tests over awkward block splits).
2. **Exactness of the recurrences** — the vectorized Lindley solution
   reproduces the naive scalar recurrence to fp tolerance and the G/G/c
   scan reproduces it bit-for-bit, across block boundaries.
3. **Gating** — ``qualifies`` admits exactly the models the recurrences
   are exact for, forced ``engine="fastpath"`` raises on anything else,
   and ``engine="auto"`` fallback is bit-identical to ``engine="event"``
   (same histogram digests), which is what keeps every pre-PR digest
   valid.
"""

import json
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
    _heap_scan,
    _lindley_block,
    qualifies,
    run_fastpath,
)
from repro.workloads.workload import Workload


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
        assert block._counts == scalar._counts
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

    def test_max_sim_time_disqualifies(self):
        experiment, _ = build_mm1(max_sim_time=100.0)
        verdict = qualifies(experiment)
        assert not verdict and "max_sim_time" in verdict.reason

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
        experiment.simulation.schedule_at(10.0, lambda: None, "governor")
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
    def test_mm1_mean_matches_theory(self):
        from repro import theory

        experiment, _ = build_mm1(engine="fastpath", rho=0.7, accuracy=0.02)
        result = experiment.run()
        assert result.converged
        expected = theory.mm1_mean_response(0.7, 1.0)
        estimate = result["response_time"]
        half_width = (
            (estimate.mean_ci[1] - estimate.mean_ci[0]) / 2
            if estimate.mean_ci else 0.0
        )
        assert abs(estimate.mean - expected) <= 0.1 * expected + half_width

    def test_mmk_waiting_matches_theory(self):
        from repro import theory

        experiment = Experiment(
            seed=9, engine="fastpath", warmup_samples=200,
            calibration_samples=1000,
        )
        server = Server(cores=4)
        experiment.add_source(
            Workload("mmk", Exponential(rate=0.8 * 4), Exponential(1.0)),
            server,
        )
        experiment.track_waiting_time(server, mean_accuracy=0.02)
        result = experiment.run()
        assert result.converged
        expected = theory.mmk_mean_waiting(0.8 * 4, 1.0, 4)
        assert result["waiting_time"].mean == pytest.approx(
            expected, rel=0.1
        )

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


class TestResumedRun:
    @pytest.mark.parametrize("cores", [1, 4])
    def test_second_run_continues_the_first(self, cores):
        from repro.engine.report import result_to_dict

        def build():
            # A target no budget here reaches, so every call runs it out.
            experiment, _ = build_mm1(
                engine="fastpath", seed=3, rho=0.8, accuracy=1e-5,
                cores=cores,
            )
            return experiment

        def outcome(result):
            fields = result_to_dict(result)
            del fields["wall_time"]
            return fields

        block_events = fastpath.BLOCK_JOBS * fastpath.EVENTS_PER_JOB
        expected = outcome(build().run(max_events=3 * block_events))
        experiment = build()
        first = experiment.run(max_events=block_events)
        assert first.events_processed == block_events
        # Same block partition as the single run, so bit-equal to it.
        resumed = experiment.run(max_events=3 * block_events)
        assert outcome(resumed) == expected
        assert experiment.sources[0].generated == 3 * fastpath.BLOCK_JOBS
        # The budget is cumulative: once spent, a further call is a no-op.
        assert outcome(experiment.run(max_events=3 * block_events)) == expected


#: ``engine="fastpath"`` outcomes recorded at commit 275bd65, when core
#: counts up to 16 still ran the generated unrolled kernel: everything
#: ``result_to_dict`` reports except wall time, plus histogram digests.
PINS = json.loads(
    (Path(__file__).parent / "fixtures" / "fastpath_pins.json").read_text()
)


class TestPinnedResults:
    @pytest.mark.parametrize(
        "pin", PINS, ids=lambda pin: f"c{pin['cores']}-seed{pin['seed']}"
    )
    def test_result_equals_recorded_parent_values(self, pin):
        from repro.engine.report import result_to_dict
        from repro.parallel.protocol import payload_digest

        cores = pin["cores"]
        experiment = Experiment(
            seed=pin["seed"], engine="fastpath", warmup_samples=200,
            calibration_samples=1000,
        )
        server = Server(cores=cores)
        experiment.add_source(
            Workload(
                "mmc", Exponential(rate=0.8 * cores), Exponential(rate=1.0)
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
        assert json.loads(json.dumps(got)) == pin["result"]


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
