"""Vectorized Lindley-recurrence fast path for FCFS queues.

For the models where closed recurrences are *exact* — a single open-loop
source feeding a plain G/G/c FCFS server — the per-event Python dispatch
of the discrete-event engine is pure overhead: waiting times are a pure
function of the interarrival and service draws.  This module computes
them directly:

- **G/G/1**: the Lindley recurrence ``W[i+1] = max(0, W[i] + S[i] -
  T[i+1])`` has the reflected-random-walk solution ``W[1+j] = X[j] -
  min(-W[1], min_{i<=j} X[i])`` with ``X = cumsum(S[:-1] - T[1:])``,
  which vectorizes to three numpy passes per block.
- **G/G/c (c >= 2)**: the Kiefer–Wolfowitz next-free-server recurrence —
  each job starts at ``max(arrival, min(core free times))`` — is
  sequential along one sample path, and has one scalar body: a
  comprehension of ``heapreplace`` over a ``heapq`` of free times,
  O(log c) per job (queuecomputer's design, :func:`_scan_core`).  Two
  FCFS paths that see the same jobs couple, though: once their free
  times agree clamped at the current arrival, every later start is the
  same.  So :func:`_lane_scan` cuts up to three blocks into lanes of
  128 jobs, runs them side by side as ``(c, K)`` numpy rows — once from
  an empty system, once from the previous lane's end — keeps each lane
  whose start state agreed with the truth, and recomputes the others
  with the scalar body.  Waits are bit-identical either way.  At c = 4,
  rho = 0.8 the kernel costs 80 ns a job on three blocks a call (122 on
  one) against the heap scan's 300.  Where it does not pay — c > 8, a
  short block, or a load at which too many lanes need repair —
  :func:`_ggc_scan` keeps the heap scan (``docs/fastpath.md`` has the
  crossover table).

Draws come in blocks from the **same RNG streams** the event engine
would use (``Distribution.sample_block`` on the source's arrival and
service generators), and the resulting waiting/response vectors feed the
**same statistics pipeline** (``Statistic.observe_block`` — bit-equal to
the scalar path), so warmup, calibration, convergence decisions, CI
semantics, and reports are untouched.  Results are *statistically
equivalent* to the event engine — same distributions, same estimator —
but not bit-identical: :func:`run_fastpath` draws fresh gaps from
``source._next_gap.rng``, after the first arrival ``Source.bind`` armed
and the 4 096 gaps its ``PrefetchSampler`` already buffered, so the
fast path pairs each service with a later gap than the event engine
does (arrivals and services come from separate generators, so draw
interleaving is not the cause); and for c >= 2 observations arrive in
arrival order rather than completion order.  See ``docs/fastpath.md``.

Eligibility is decided structurally by :func:`qualifies`; callers should
go through ``Experiment(engine="auto")`` which falls back to the event
engine (bit-identical to today) whenever a model does not qualify.
"""

from __future__ import annotations

import functools
import heapq
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.datacenter.disciplines import FCFSQueue
from repro.datacenter.server import Server
from repro.datacenter.source import Source

#: Jobs simulated per block: large enough to amortize numpy dispatch,
#: small enough that convergence is checked at a reasonable cadence.
BLOCK_JOBS = 32768

#: Event-engine cost of one fastpath job (arrival + completion), used to
#: honour ``max_events`` budgets at parity with the event engine.
EVENTS_PER_JOB = 2


class FastpathError(RuntimeError):
    """Raised when the fast path is forced on a non-qualifying model."""


@dataclass(frozen=True)
class Qualification:
    """Outcome of the structural eligibility check.

    Truthy when the model qualifies; otherwise :attr:`reason` says which
    structural feature requires the event engine.
    """

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


_QUALIFIED = Qualification(True)


def qualifies(experiment) -> Qualification:
    """Decide whether ``experiment`` can run on the vectorized fast path.

    The recurrences are exact only for one open-loop synthetic source
    feeding a plain FCFS server whose only observers are the waiting /
    response-time metrics — anything that couples to the event clock
    (tracers, sanitizer probes, governors, forwarding, pause/speed
    policies, trace replay) disqualifies the model.
    """
    if not len(experiment.stats):
        return Qualification(False, "no tracked metrics")
    if experiment._tracer is not None:
        return Qualification(False, "structured tracer requires the event engine")
    if experiment.collect_telemetry:
        return Qualification(False, "telemetry collection requires the event engine")
    sim = experiment.simulation
    if sim.probe is not None:
        return Qualification(False, "determinism sanitizer requires the event engine")
    if sim.events_processed:
        return Qualification(False, "experiment already started on the event engine")
    if len(experiment.sources) != 1:
        return Qualification(
            False, f"needs exactly one source, found {len(experiment.sources)}"
        )
    source = experiment.sources[0]
    if type(source) is not Source:
        return Qualification(
            False, f"{type(source).__name__} is not a synthetic open-loop Source"
        )
    if not source.draw_sizes:
        return Qualification(False, "source defers service draws to the server")
    if source.max_jobs is not None:
        return Qualification(False, "bounded job count (max_jobs) is event-engine only")
    if getattr(source.workload, "servers_needed", None) is not None:
        return Qualification(
            False,
            "multiserver-job workload (servers_needed) requires the event engine",
        )
    station = source.target
    if type(station) is not Server:
        # Named rejections for the stations the Lindley/Kiefer–Wolfowitz
        # recurrences structurally cannot model, so auto-mode falls back
        # with a reason operators can act on.  Imported here, so that a
        # run on a plain Server loads neither module.
        from repro.datacenter.balancers import _ReplicatingBalancer
        from repro.datacenter.cluster import MultiserverCluster

        if isinstance(station, MultiserverCluster):
            return Qualification(
                False,
                "gang-scheduled MultiserverCluster requires the event engine",
            )
        if isinstance(station, _ReplicatingBalancer):
            return Qualification(
                False, "cloning/hedging balancer requires the event engine"
            )
        return Qualification(
            False, f"target {type(station).__name__} is not a plain Server"
        )
    if type(station.queue) is not FCFSQueue:
        return Qualification(
            False, f"non-FCFS discipline {type(station.queue).__name__}"
        )
    if station.forward_to is not None:
        return Qualification(False, "multi-tier forwarding attached")
    if station.service_distribution is not None:
        return Qualification(False, "server-side service distribution attached")
    if station.paused:
        return Qualification(False, "server starts paused")
    if station._arrival_listeners or station._occupancy_listeners:
        return Qualification(False, "arrival/occupancy listeners attached")
    bindings = experiment._metric_bindings
    names = [binding.name for binding in bindings]
    if sorted(names) != sorted(statistic.name for statistic in experiment.stats):
        return Qualification(
            False, "metrics beyond plain waiting/response-time trackers"
        )
    if any(binding.station is not station for binding in bindings):
        return Qualification(False, "metric tracks a different station")
    if len(station._complete_listeners) != len(bindings):
        return Qualification(False, "extra completion listeners attached")
    if len(sim.events) != 1:
        return Qualification(
            False,
            "event queue holds more than the first arrival "
            "(governors or custom events scheduled)",
        )
    return _QUALIFIED


# -- block recurrences --------------------------------------------------------

def _scan_core(
    arrivals: np.ndarray, services: np.ndarray, free: list
) -> np.ndarray:
    """The scalar Kiefer–Wolfowitz recurrence over given arrival times.

    ``free`` holds the core free times as a heap and is advanced in
    place.  Each job starts at ``max(arrival, free[0])`` and
    ``heapreplace`` writes its departure back — the same additions, in
    the same order, as the reference next-free-server recurrence; which
    of several equally free cores serves a job does not enter a waiting
    time.  O(log c) per job.

    ``heapreplace`` returns what it pops, so the comprehension emits the
    smallest free time each job met and numpy finishes the block:
    ``max(free_min - arrival, 0)`` is the reference's ``start -
    arrival`` bit for bit (one subtraction when the job waits;
    otherwise ``+0.0``, as ``x - x`` is).  The draws are read through
    ``memoryview``, one short-lived float at a time, so the block is
    never boxed on the way in.
    """
    replace = heapq.heapreplace
    waits = np.fromiter([
        replace(free, (f if (f := free[0]) > a else a) + s)
        for a, s in zip(memoryview(arrivals), memoryview(services))
    ], float, len(arrivals))
    waits -= arrivals
    np.maximum(waits, 0.0, out=waits)
    return waits


def _heap_scan(
    gaps: np.ndarray,
    services: np.ndarray,
    carry: Tuple[float, list],
) -> Tuple[np.ndarray, Tuple[float, list]]:
    """Waiting times for one G/G/c block (c >= 2), with carry across blocks.

    ``carry`` is ``(clock, free)``: the time of the last arrival so far
    and the core free times as a heap, advanced in place by
    :func:`_scan_core`.
    """
    clock, free = carry
    arrivals = np.cumsum(gaps)
    arrivals += clock
    return _scan_core(arrivals, services, free), (float(arrivals[-1]), free)


#: Jobs per lane of :func:`_lane_scan`.  A lane started from an empty
#: system has met the true path by its end in all but 5 % of lanes of
#: this length at c = 4, rho = 0.8 (9 % at c = 8); lanes of 64 and 256
#: jobs were no faster there.
_LANE_JOBS = 128

#: Blocks one :func:`_lane_scan` call steps side by side.  A step costs
#: 2c ufunc calls however many lanes it spans, and a block is only 256
#: lanes: at c = 4, rho = 0.8 the kernel cost 102 ns a job at 256 lanes
#: a step, 76 at 512 and 63 at 1 024 (``docs/fastpath.md``).
_LANE_GROUP_BLOCKS = 3

#: A block takes the lanes only with at least this many lanes per core.
#: A step costs 2c ufunc calls over all K lanes, a heap scan job O(log c),
#: and the lanes broke even near 16 lanes a core (c = 4, 8, 12 at rho =
#: 0.8; ``docs/fastpath.md``).  A full block has 256 lanes, so c > 8
#: always takes the scalar scan, and so does a short, budget-cut block.
_LANE_MIN_LANES_PER_CORE = 32

#: When more than this share of a block's lanes needed repair, the next
#: :data:`_LANE_REPROBE_BLOCKS` blocks take the scalar scan and the one
#: after them tries the lanes again.  The lanes lost from about 45 % of
#: lanes repaired at c = 2 and 4 and from 35 % at c = 8.  A probe where
#: they lose costs up to a quarter more than the heap scan on its block,
#: so probes are rare: a 20-block run at rho = 0.95 costs what it did on
#: the heap scan alone, within 1 % (regime table in ``docs/fastpath.md``).
_LANE_MAX_REPAIRED = 0.3
_LANE_REPROBE_BLOCKS = 64


def _lanes_pay(n: int, cores: int) -> bool:
    """Whether a block of ``n`` jobs has lanes enough for ``cores``."""
    return n // _LANE_JOBS >= _LANE_MIN_LANES_PER_CORE * cores


def _lane_buffers(
    lanes: int = _LANE_GROUP_BLOCKS * BLOCK_JOBS // _LANE_JOBS,
    lane_jobs: int = _LANE_JOBS,
) -> np.ndarray:
    """The step-major arrival, service and start-time buffers of
    :func:`_lane_scan`, as one ``(3, lane_jobs, lanes)`` array."""
    return np.empty((3, lane_jobs, lanes))


def _run_lanes(
    arrivals: np.ndarray, services: np.ndarray, free: np.ndarray,
    starts: np.ndarray,
) -> None:
    """Step every lane through its jobs at once.

    ``arrivals``, ``services`` and ``starts`` are ``(L, K)``: row ``t``
    holds job ``t`` of each of the K lanes.  ``free`` is ``(c, K)``, each
    column a lane's free times sorted ascending, advanced in place.  A
    step starts every lane's job at ``max(free[0], arrival)`` and
    inserts its departure into the other c - 1 free times by a chain of
    compare-swaps, so the column stays sorted: 2c ufunc calls a step.
    """
    rows = list(free)
    departure = np.empty(free.shape[1])
    # Row j-1 takes min(row j, departure) and the departure carries
    # max(row j, departure) on; the last row keeps what is carried.
    swaps = [
        (rows[j], rows[j - 1], departure if j < len(rows) - 1 else rows[j])
        for j in range(1, len(rows))
    ]
    head = rows[0]
    maximum, minimum, add = np.maximum, np.minimum, np.add
    for arrival, service, start in zip(arrivals, services, starts):
        maximum(head, arrival, out=start)
        add(start, service, out=departure)
        for row, lower, carried in swaps:
            minimum(row, departure, out=lower)
            maximum(row, departure, out=carried)


def _lane_scan(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
    carry: Tuple[float, list],
    buffers: np.ndarray,
) -> Iterator[Tuple[np.ndarray, np.ndarray, Tuple[float, list], int]]:
    """:func:`_heap_scan`'s waits and carry for consecutive blocks,
    computed as parallel lanes.

    ``blocks`` gives each block's ``(gaps, services)``; ``buffers`` is
    :func:`_lane_buffers`' array, wide enough for every lane of them.
    Yields, block by block, ``(waits, services, carry, repaired)``: the
    heap scan's two values, the block's services in job order, and how
    many of its lanes needed repair.

    Each block's arrival times are summed on their own, as the heap scan
    sums them, cut into lanes of ``lane_jobs = buffers.shape[1]`` jobs
    and scattered, with the services, into the step-major buffers after
    the lanes of the blocks before it: row ``t`` holds job ``t`` of every
    lane, so one step of :func:`_run_lanes` spans every block.  The draws
    are dropped as soon as they are scattered.  Pass 1 runs lane 0 from
    the carried free times and every other lane from an empty system;
    pass 2 runs lane k from lane k - 1's pass-1 end; the start times
    then become waits in place.  Two FCFS paths whose free times agree
    once each is clamped at the current arrival start every later job at
    the same instant (a free time below the arrival acts as the arrival
    itself), so lane k's pass-2 waits are exact when lane k - 1 is and
    its two end states agree clamped at lane k's first arrival.  A lane
    that fails the check is recomputed by :func:`_scan_core` from the
    true end of the lane before it, and the chain continues from there.
    Every block but the last must be a whole number of lanes; the last
    one's ``n mod lane_jobs`` tail runs scalar.

    Waits are ``==`` to :func:`_heap_scan`'s.  Each carried free list is
    equal to the heap scan's after clamping at the clock: free times
    below the clock may differ, and no later wait can see them.
    """
    clock, free = carry
    arrivals_at, services_at, starts_at = buffers
    lane_jobs = buffers.shape[1]
    # (jobs, first lane, end lane, clock) of each block.
    cuts = []
    tail = None
    lanes = 0
    for gaps, services in blocks:
        if tail is not None and tail[0].size:
            raise ValueError("only the last block may end mid-lane")
        n = gaps.shape[0]
        span = n - n % lane_jobs
        end = lanes + span // lane_jobs
        services_at[:, lanes:end] = services[:span].reshape(-1, lane_jobs).T
        # No start time is written before the passes, so each block's
        # arrival times are summed in the start-time buffer.
        arrivals = np.cumsum(gaps, out=starts_at.reshape(-1)[:n])
        arrivals += clock
        clock = float(arrivals[-1])
        arrivals_at[:, lanes:end] = arrivals[:span].reshape(-1, lane_jobs).T
        tail = arrivals[span:].copy(), services[span:].copy()
        cuts.append((n, lanes, end, clock))
        lanes = end
        # Dropped before the next block is drawn.
        del gaps, services

    arrivals = arrivals_at[:, :lanes]
    services = services_at[:, :lanes]
    starts = starts_at[:, :lanes]
    start_free = sorted(free)
    ends = np.zeros((len(free), lanes))
    exact = np.empty_like(ends)
    if lanes:
        ends[:, 0] = start_free
        _run_lanes(arrivals, services, ends, starts)
        exact[:, 0] = start_free
        exact[:, 1:] = ends[:, :-1]
        _run_lanes(arrivals, services, exact, starts)
        np.subtract(starts, arrivals, out=starts)

    # Lane k is exact iff lane k - 1 is and its two ends agree clamped at
    # lane k's first arrival; a repair re-checks the lane after it.
    firsts = arrivals[0]
    agree = np.equal(
        np.maximum(ends[:, :-1], firsts[1:]),
        np.maximum(exact[:, :-1], firsts[1:]),
    ).all(axis=0)
    repaired = np.zeros(lanes, dtype=bool)
    settled = 0
    for lane in (np.flatnonzero(~agree) + 1).tolist():
        if lane <= settled:
            continue
        while True:
            state = exact[:, lane - 1].tolist()
            starts[:, lane] = _scan_core(
                arrivals[:, lane], services[:, lane], state
            )
            state.sort()
            exact[:, lane] = state
            repaired[lane] = True
            lane += 1
            if lane == lanes or np.array_equal(
                np.maximum(ends[:, lane - 1], firsts[lane]),
                np.maximum(exact[:, lane - 1], firsts[lane]),
            ):
                break
        settled = lane

    for n, low, high, clock in cuts:
        span = (high - low) * lane_jobs
        waits = np.empty(n)
        block_services = np.empty(n)
        np.copyto(waits[:span].reshape(-1, lane_jobs), starts[:, low:high].T)
        np.copyto(
            block_services[:span].reshape(-1, lane_jobs),
            services[:, low:high].T,
        )
        free = exact[:, high - 1].tolist() if high else start_free
        if span < n:
            tail_arrivals, tail_services = tail
            waits[span:] = _scan_core(tail_arrivals, tail_services, free)
            block_services[span:] = tail_services
        yield (
            waits, block_services, (clock, free),
            int(np.count_nonzero(repaired[low:high])),
        )
        # Not held while the next block's are made.
        del waits, block_services


def _ggc_scan(
    draw: Callable[[int], Tuple[np.ndarray, np.ndarray]],
    jobs: int,
    carry: Tuple[float, list, int],
    buffers: Optional[np.ndarray],
) -> Iterator[Tuple[np.ndarray, np.ndarray, Tuple[float, list, int]]]:
    """The next one to three G/G/c blocks, on the lanes or the heap scan,
    whichever pays.

    ``draw(n)`` returns a block's gaps and services, and ``jobs`` is what
    is left of the budget.  Yields ``(waits, services, carry)`` block by
    block.  ``carry`` is ``(clock, free, hold)``: the heap scan's carry
    plus the guard's state.  With ``hold`` above 1 a block takes the heap
    scan and counts it down; at 1 a block probes the lanes on its own; at
    0, once a lane block has passed, :data:`_LANE_GROUP_BLOCKS` full
    blocks step together through ``buffers``, as many as the budget
    holds whole (a group needs two).  A lane block with more than
    :data:`_LANE_MAX_REPAIRED` of its lanes repaired sets ``hold`` to
    :data:`_LANE_REPROBE_BLOCKS` + 1; the blocks after it in its group
    keep their lanes, which are paid for, and count the hold down as the
    heap scan would.  Every kernel gives the same waits, so neither the
    choice nor the group size ever moves a result.
    """
    clock, free, hold = carry
    n = min(jobs, BLOCK_JOBS)
    if hold > 1 or not _lanes_pay(n, len(free)):
        gaps, services = draw(n)
        waits, (clock, free) = _heap_scan(gaps, services, (clock, free))
        yield waits, services, (clock, free, hold - 1 if hold > 1 else hold)
        return
    full = jobs // BLOCK_JOBS
    count = min(_LANE_GROUP_BLOCKS, full) if not hold and full > 1 else 1
    for waits, services, (clock, free), repaired in _lane_scan(
        (draw(n) for _ in range(count)), (clock, free), buffers
    ):
        if hold > 1:
            hold -= 1
        elif repaired > _LANE_MAX_REPAIRED * (waits.shape[0] // _LANE_JOBS):
            hold = _LANE_REPROBE_BLOCKS + 1
        else:
            hold = 0
        yield waits, services, (clock, free, hold)


def _lindley_block(
    gaps: np.ndarray,
    services: np.ndarray,
    carry: Tuple[float, float, float],
) -> Tuple[np.ndarray, Tuple[float, float, float]]:
    """Waiting times for one G/G/1 block, with carry across blocks.

    ``carry`` is ``(clock, w_last, s_last)`` — the time of the last
    arrival so far and the previous block's final waiting and service
    time — so the recurrence continues exactly: the first wait is
    ``max(0, w_last + s_last - gaps[0])`` and the rest follow the
    reflected-random-walk identity.
    """
    clock, w_last, s_last = carry
    n = gaps.shape[0]
    waits = np.empty(n, dtype=float)
    first = w_last + s_last - gaps[0]
    waits[0] = first if first > 0.0 else 0.0
    if n > 1:
        walk = np.cumsum(services[:-1] - gaps[1:])
        floor = np.minimum.accumulate(walk)
        np.minimum(floor, -waits[0], out=floor)
        np.subtract(walk, floor, out=waits[1:])
    return waits, (
        clock + float(gaps.sum()), float(waits[-1]), float(services[-1])
    )


def _lindley_scan(
    draw: Callable[[int], Tuple[np.ndarray, np.ndarray]],
    jobs: int,
    carry: Tuple[float, float, float],
) -> Iterator[Tuple[np.ndarray, np.ndarray, Tuple[float, float, float]]]:
    """The next G/G/1 block, yielded as :func:`_ggc_scan` yields blocks."""
    gaps, services = draw(min(jobs, BLOCK_JOBS))
    waits, carry = _lindley_block(gaps, services, carry)
    yield waits, services, carry


# -- the engine ---------------------------------------------------------------

def run_fastpath(experiment, max_events: Optional[int] = None):
    """Run ``experiment`` to convergence on the vectorized fast path.

    Returns an ``ExperimentResult`` shaped exactly like the event
    engine's: same estimate payloads, ``events_processed`` accounted at
    two events per job (arrival + completion) so ``max_events`` budgets
    bound the same amount of simulated work, ``sim_time`` the time of
    the last generated arrival.  A repeated call resumes where the last
    one stopped: the budget and every result field but ``wall_time``
    are cumulative over the experiment.
    """
    # Imported here: experiment.py imports this module lazily from
    # run(), so a top-level import back into it would be circular.
    from repro.engine.experiment import ExperimentResult

    qualification = qualifies(experiment)
    if not qualification:
        raise FastpathError(
            f"model does not qualify for the fast path: {qualification.reason}"
        )
    started = time.perf_counter()

    source = experiment.sources[0]
    station: Server = source.target
    cores = station.cores
    speed = station.speed
    interarrival = source.workload.interarrival
    service = source.workload.service
    arrival_rng = source._next_gap.rng
    service_rng = source._next_size.rng

    # One (observe_block, kind) feed per tracked metric.
    feeds: List[Tuple[Callable, str]] = [
        (experiment.stats[binding.name].observe_block, binding.kind)
        for binding in experiment._metric_bindings
    ]
    wants_response = any(kind == "response" for _, kind in feeds)

    budget = max_events if max_events is not None else experiment.max_events
    jobs_budget = budget // EVENTS_PER_JOB

    # Either kernel maps (draw, jobs left, carry) to the next blocks'
    # (waits, services, carry) and keeps the clock — the time of the last
    # arrival — in carry[0].
    if cores == 1:
        kernel, carry = _lindley_scan, (0.0, 0.0, 0.0)
    else:
        buffers = _lane_buffers() if _lanes_pay(BLOCK_JOBS, cores) else None
        kernel = functools.partial(_ggc_scan, buffers=buffers)
        carry = (0.0, [0.0] * cores, 1)
    # The carry and the job count live with the experiment, so a later
    # run() continues this sample path under a cumulative budget, as on
    # the event engine.
    carry = experiment._fastpath_carry or carry
    jobs = source.generated

    # Both streams' states before each block the kernel draws: a group
    # drawn past the block that converged rewinds to the next one's.
    snapshots: List[Tuple[dict, dict]] = []

    def draw(n: int) -> Tuple[np.ndarray, np.ndarray]:
        snapshots.append(
            (arrival_rng.bit_generator.state, service_rng.bit_generator.state)
        )
        gaps = interarrival.sample_block(arrival_rng, n)
        services = service.sample_block(service_rng, n)
        if speed != 1.0:
            services = services / speed
        return gaps, services

    stats = experiment.stats
    progress = experiment._progress
    while not stats.all_converged:
        remaining = jobs_budget - jobs
        if remaining <= 0:
            break
        snapshots.clear()
        for fed, (waits, services, carry) in enumerate(
            kernel(draw, remaining, carry), 1
        ):
            # The kernels hand over services no one else holds.
            responses = (
                np.add(waits, services, out=services) if wants_response
                else None
            )
            for feed, kind in feeds:
                feed(responses if kind == "response" else waits)
            jobs += waits.shape[0]
            if progress is not None:
                progress.poll(experiment)
            if stats.all_converged:
                break
        if fed < len(snapshots):
            arrival_state, service_state = snapshots[fed]
            arrival_rng.bit_generator.state = arrival_state
            service_rng.bit_generator.state = service_state

    source.generated = jobs
    experiment._fastpath_carry = carry
    wall = time.perf_counter() - started
    return ExperimentResult(
        estimates=stats.report(),
        converged=stats.all_converged,
        events_processed=jobs * EVENTS_PER_JOB,
        sim_time=carry[0],
        wall_time=wall,
        jobs_generated=jobs,
        extras={"engine": "fastpath"},
    )
