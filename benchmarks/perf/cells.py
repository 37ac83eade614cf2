"""Layer cells: timed calls into each layer's public functions.

One cell is one operation of one layer (``core.histogram.insert``, one
event through ``Simulation.run``, one pipe round trip), on inputs shaped
like the workloads': exponential draws, 1000-bin histograms, 4096-draw
prefetch blocks, M/M/1 at rho = 0.8.  A cell is grown until one timing
lasts ``--seconds``, timed ``--repeats`` times, and reported as the median
time per operation.  Loops are plain ``for`` loops, so every per-call cell
carries the same ~15 ns of loop cost.

Run in its own process by ``run.py``; the last line of output is one JSON
object ``{name: {"value": ..., "unit": ...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable, Dict, List, Tuple

import worker  # first: puts the checkout's src/ on sys.path

import numpy as np  # noqa: E402

from repro import Experiment, Server, Workload  # noqa: E402
from repro.config.loader import build_experiment  # noqa: E402
from repro.core.histogram import BinScheme, Histogram  # noqa: E402
from repro.core.runs_test import find_lag  # noqa: E402
from repro.core.statistic import Phase, Statistic  # noqa: E402
from repro.datacenter.processor_sharing import (  # noqa: E402
    ProcessorSharingServer,
)
from repro.datacenter.source import Source  # noqa: E402
from repro.distributions import Exponential  # noqa: E402
from repro.distributions.prefetch import PrefetchSampler  # noqa: E402
from repro.engine.events import EventQueue  # noqa: E402
from repro.engine.simulation import Simulation  # noqa: E402
from repro.observability.tracer import Tracer  # noqa: E402
from repro.parallel.memory import InMemoryTransport  # noqa: E402
from repro.parallel.protocol import (  # noqa: E402
    histogram_delta,
    validate_report_payload,
)
from repro.parallel.transport import (  # noqa: E402
    FRAME_HEADER,
    LocalPipeTransport,
    decode_payload,
    encode_frame,
)
from repro.sweep.cache import SweepCache  # noqa: E402
from repro.sweep.spec import SweepSpec  # noqa: E402

clock = time.perf_counter

BLOCK = 32768  # the fast path's block size
UNITS = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}

#: name -> (unit, operations per loop step, factory of ``loop(n) -> seconds``)
CELLS: Dict[str, Tuple[str, int, Callable[[], Callable[[int], float]]]] = {}


def cell(name: str, per: int = 1):
    """Register a cell; its unit is the name's suffix (``..._ns``)."""
    def register(factory):
        CELLS[name] = (name.rsplit("_", 1)[1], per, factory)
        return factory
    return register


def noop() -> None:
    pass


def repeat(call: Callable[[], object], n: int) -> float:
    started = clock()
    for _ in range(n):
        call()
    return clock() - started


def each(call: Callable[[float], object], values: list, n: int) -> float:
    """``call(v)`` n times over ``values`` (cycled)."""
    full, rest = divmod(n, len(values))
    head = values[:rest]
    started = clock()
    for _ in range(full):
        for value in values:
            call(value)
    for value in head:
        call(value)
    return clock() - started


def exponentials(count: int) -> np.ndarray:
    return np.random.default_rng(20120401).exponential(size=count)


def mm1_responses(count: int) -> np.ndarray:
    """Successive M/M/1 (rho 0.8) response times: an autocorrelated
    calibration window like the one ``mm1_event`` hands the runs-up test."""
    rng = np.random.default_rng(20120401)
    gaps = rng.exponential(1 / 0.8, size=count).tolist()
    services = rng.exponential(1.0, size=count).tolist()
    wait, out = 0.0, []
    for gap, service in zip(gaps, services):
        wait = max(0.0, wait - gap)
        out.append(wait + service)
        wait += service
    return np.asarray(out)


# -- distributions ------------------------------------------------------------

def _sample_block(distribution):
    rng = np.random.default_rng(1)
    return lambda n: repeat(lambda: distribution.sample_block(rng, BLOCK), n)


@cell("distributions.exponential.sample_block_ns", per=BLOCK)
def _():
    return _sample_block(Exponential(rate=1.0))


@cell("distributions.hyperexp.sample_block_ns", per=BLOCK)
def _():
    return _sample_block(worker.H2_SERVICE)


@cell("distributions.prefetch.sample_ns")
def _():
    sampler = PrefetchSampler(Exponential(rate=1.0), np.random.default_rng(1))
    return lambda n: repeat(sampler, n)


# -- engine -------------------------------------------------------------------

@cell("engine.events.schedule_pop_ns")
def _():
    depth = 64
    queue = EventQueue()
    for slot in range(depth):
        queue.schedule(float(slot), noop)
    state = {"now": float(depth)}

    def loop(n):
        schedule, pop, now = queue.schedule, queue.pop, state["now"]
        started = clock()
        for _ in range(n):
            pop()
            schedule(now, noop)
            now += 1.0
        elapsed = clock() - started
        state["now"] = now
        return elapsed
    return loop


@cell("engine.events.cancel_ns")
def _():
    batch = 256  # below EventQueue.COMPACT_MIN, like the clone workload's heap

    def loop(n):
        elapsed = 0.0
        while n > 0:
            queue = EventQueue()
            handles = [queue.schedule(float(i), noop)
                       for i in range(min(batch, n))]
            cancel = queue.cancel
            started = clock()
            for handle in handles:
                cancel(handle)
            elapsed += clock() - started
            n -= len(handles)
        return elapsed
    return loop


@cell("engine.simulation.empty_event_ns")
def _():
    sim = Simulation(0)

    def tick():
        sim.schedule_in(1.0, tick)

    tick()

    def loop(n):
        started = clock()
        sim.run(max_events=n)
        return clock() - started
    return loop


def _station_jobs(station):
    """Source -> station at rho 0.8 with nothing tracked: two events a job."""
    sim = Simulation(1)
    Source(Workload("mm1", Exponential(rate=0.8), Exponential(rate=1.0)),
           station).bind(sim)

    def loop(n):
        started = clock()
        sim.run(max_events=2 * n)
        return clock() - started
    return loop


@cell("datacenter.server.job_ns")
def _():
    return _station_jobs(Server(cores=1))


@cell("datacenter.processor_sharing.job_ns")
def _():
    return _station_jobs(ProcessorSharingServer())


def _fastpath_jobs(cores: int):
    """run_fastpath at a fixed event budget it cannot converge within."""
    def loop(n):
        experiment = Experiment(seed=1, engine="fastpath")
        server = Server(cores=cores)
        experiment.add_source(
            Workload("mmc", Exponential(rate=0.8 * cores),
                     Exponential(rate=1.0)), target=server)
        experiment.track_response_time(server, mean_accuracy=1e-6)
        started = clock()
        experiment.run(max_events=2 * n * BLOCK)
        return clock() - started
    return loop


@cell("engine.fastpath.mm1_job_ns", per=BLOCK)
def _():
    return _fastpath_jobs(1)


@cell("engine.fastpath.mm4_job_ns", per=BLOCK)
def _():
    return _fastpath_jobs(4)


# -- core ---------------------------------------------------------------------

def _measuring_statistic() -> Statistic:
    """A statistic past calibration that will not converge while timed."""
    statistic = Statistic("cell", mean_accuracy=1e-6)
    statistic.observe_block(exponentials(8000))
    assert statistic.phase is Phase.MEASUREMENT, statistic.phase
    return statistic


@cell("core.statistic.observe_ns")
def _():
    statistic = _measuring_statistic()
    statistic.lag = 10
    values = exponentials(100_000).tolist()
    return lambda n: each(statistic.observe, values, n)


@cell("core.statistic.observe_block_ns", per=BLOCK)
def _():
    statistic = _measuring_statistic()
    block = exponentials(BLOCK)
    return lambda n: repeat(lambda: statistic.observe_block(block), n)


def _histogram() -> Histogram:
    histogram = Histogram(BinScheme(low=0.0, high=12.0, bins=1000))
    histogram.insert_block(exponentials(50_000))
    return histogram


@cell("core.histogram.insert_ns")
def _():
    histogram = _histogram()
    values = exponentials(100_000).tolist()
    return lambda n: each(histogram.insert, values, n)


@cell("core.histogram.insert_block_ns", per=BLOCK)
def _():
    histogram = _histogram()
    block = exponentials(BLOCK)
    return lambda n: repeat(lambda: histogram.insert_block(block), n)


@cell("core.histogram.quantile_us")
def _():
    histogram = _histogram()
    return lambda n: repeat(lambda: histogram.quantile(0.95), n)


@cell("core.runs_test.find_lag_ms")
def _():
    window = mm1_responses(5000)
    return lambda n: repeat(lambda: find_lag(window), n)


@cell("core.convergence.check_us")
def _():
    statistic = Statistic("cell", mean_accuracy=1e-6, quantiles={0.95: 1e-6})
    statistic.observe_block(exponentials(60_000))
    return lambda n: repeat(statistic.required_sample_size, n)


# -- parallel -----------------------------------------------------------------

def _report_payloads() -> Tuple[dict, dict]:
    """Two successive 1000-bin histogram payloads, as a slave reports them."""
    histogram = _histogram()
    previous = histogram.to_payload()
    histogram.insert_block(exponentials(4000))
    return previous, histogram.to_payload()


@cell("parallel.protocol.delta_us")
def _():
    previous, current = _report_payloads()
    return lambda n: repeat(lambda: histogram_delta(current, previous), n)


@cell("parallel.protocol.merge_us")
def _():
    previous, current = _report_payloads()
    delta = histogram_delta(current, previous)
    merged = Histogram.from_payload(previous)
    return lambda n: repeat(lambda: merged.merge_payload(delta), n)


@cell("parallel.protocol.validate_us")
def _():
    _, current = _report_payloads()
    scheme = tuple(current["scheme"])
    return lambda n: repeat(
        lambda: validate_report_payload(current, scheme), n)


@cell("parallel.transport.frame_us")
def _():
    _, current = _report_payloads()
    return lambda n: repeat(
        lambda: decode_payload(encode_frame(current)[FRAME_HEADER.size:]), n)


def echo_worker(conn) -> None:
    """Reply with every message until told to stop."""
    while True:
        message = conn.recv()
        if message == "stop":
            conn.close()
            return
        conn.send(message)


def _roundtrips(transport):
    """Round trips of a report payload through an echo worker.  The worker
    lives for one timing, so nothing outlives the cell."""
    _, current = _report_payloads()

    def loop(n):
        endpoint = transport.spawn(0, 0, echo_worker, ())
        try:
            endpoint.send(current)
            endpoint.recv()
            started = clock()
            for _ in range(n):
                endpoint.send(current)
                endpoint.recv()
            return clock() - started
        finally:
            transport.shutdown([endpoint])
    return loop


@cell("parallel.transport.pipe_roundtrip_us")
def _():
    return _roundtrips(LocalPipeTransport("fork"))


@cell("parallel.memory.roundtrip_us")
def _():
    return _roundtrips(InMemoryTransport())


# -- sweep, config (no workload here depends on them yet) --------------------

MM1_CONFIG = {
    "seed": 1,
    "workload": {
        "interarrival": {"type": "exponential", "mean": 1.25},
        "service": {"type": "exponential", "mean": 1.0},
    },
    "servers": {"count": 1, "cores": 1},
    "metrics": [{"kind": "response_time", "mean_accuracy": 0.02,
                 "quantiles": {"0.95": 0.05}}],
}


@cell("sweep.spec.digest_us")
def _():
    spec = SweepSpec(name="cell", base=MM1_CONFIG,
                     axes={"seed": list(range(8))})
    return lambda n: repeat(spec.digest, n)


@cell("sweep.cache.get_us")
def _():
    # Inside the checkout: the benchmark writes nowhere else.
    directory = tempfile.TemporaryDirectory(prefix=".perf-cache-",
                                            dir=worker.ROOT)
    cache = SweepCache(directory.name)
    digest = "ab" * 16
    cache.put(digest, {"estimates": _report_payloads()[1]})

    def loop(n, _keep=directory):  # the directory lives as long as the loop
        return repeat(lambda: cache.get(digest), n)
    return loop


@cell("config.loader.build_ms")
def _():
    return lambda n: repeat(lambda: build_experiment(MM1_CONFIG), n)


# -- start-up, tracer: whole processes and whole replications ----------------

def _child_seconds(arguments: List[str]) -> float:
    started = clock()
    subprocess.run(
        [sys.executable, *arguments], check=True, stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": str(worker.ROOT / "src")},
    )
    return clock() - started


def startup(repeats: int) -> Dict[str, float]:
    """Median seconds of a fresh interpreter importing the program, and of
    its command line answering ``--help``."""
    return {
        "import_s": statistics.median(
            _child_seconds(["-c", "import repro"]) for _ in range(repeats)),
        "cli.cold_start_s": statistics.median(
            _child_seconds(["-m", "repro", "--help"]) for _ in range(repeats)),
    }


def tracer_overhead(repeats: int, smoke: bool) -> float:
    """Extra host time of one ``mm1_event`` replication when the program's
    own in-memory tracer is attached, as a fraction of the untraced time."""
    spec = worker.SPECS["mm1_event"]
    targets = spec.smoke_targets if smoke else spec.targets
    seed = worker.replication_seeds(20120401, spec.name, 1)[0]

    def run(traced: bool) -> float:
        experiment = spec.build(seed, targets)
        if traced:
            experiment.attach_tracer(Tracer.to_memory())
        started = clock()
        experiment.run()
        return clock() - started

    pairs = [(run(False), run(True)) for _ in range(repeats)]
    plain = statistics.median(pair[0] for pair in pairs)
    traced = statistics.median(pair[1] for pair in pairs)
    return traced / plain - 1.0


def measure(loop: Callable[[int], float], seconds: float,
            repeats: int) -> float:
    """Median seconds per loop step over ``repeats`` timings, each of at
    least ``seconds`` (the last timing of the growth phase is the first)."""
    n = 1
    elapsed = loop(n)
    while elapsed < seconds:
        n = max(2 * n, int(1.2 * n * seconds / max(elapsed, 1e-9)))
        elapsed = loop(n)
    timings = [elapsed] + [loop(n) for _ in range(repeats - 1)]
    return statistics.median(timings) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=0.2,
                        help="least duration of one timing of a cell")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    results: Dict[str, dict] = {}
    for name, (unit, per, factory) in CELLS.items():
        per_step = measure(factory(), args.seconds, args.repeats)
        results[name] = {"value": per_step / per * UNITS[unit], "unit": unit}
    for name, value in startup(args.repeats).items():
        results[name] = {"value": value, "unit": "s"}
    results["observability.tracer.overhead_frac"] = {
        "value": tracer_overhead(args.repeats, args.smoke),
        "unit": "fraction",
    }
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
