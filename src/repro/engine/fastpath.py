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
  same.  So :func:`_lane_scan` cuts a block into lanes of 128 jobs,
  runs them side by side as ``(c, K)`` numpy rows — once from an empty
  system, once from the previous lane's end — keeps each lane whose
  start state agreed with the truth, and recomputes the others with the
  scalar body.  Waits are bit-identical either way.  At c = 4, rho =
  0.8 that cuts the kernel from 178 to 77 ns a job.  Where it
  does not pay — c > 8, a short block, or a load at which too many
  lanes need repair — :func:`_ggc_scan` keeps the heap scan
  (``docs/fastpath.md`` has the crossover table).

Draws come in blocks from the **same RNG streams** the event engine
would use (``Distribution.sample_block`` on the source's arrival and
service generators), and the resulting waiting/response vectors feed the
**same statistics pipeline** (``Statistic.observe_block`` — bit-equal to
the scalar path), so warmup, calibration, convergence decisions, CI
semantics, and reports are untouched.  Results are *statistically
equivalent* to the event engine — same distributions, same estimator —
but not bit-identical: the block sampler does not preserve the event
engine's draw interleaving, and for c >= 2 observations arrive in
arrival order rather than completion order.  See ``docs/fastpath.md``.

Eligibility is decided structurally by :func:`qualifies`; callers should
go through ``Experiment(engine="auto")`` which falls back to the event
engine (bit-identical to today) whenever a model does not qualify.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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
    if experiment.max_sim_time is not None:
        return Qualification(False, "max_sim_time horizon requires the event clock")
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
    # Named rejections for the stations the Lindley/Kiefer–Wolfowitz
    # recurrences structurally cannot model, so auto-mode falls back with
    # a reason operators can act on (lazy imports: these modules pull in
    # repro.engine.simulation and must not load during package init).
    from repro.datacenter.balancers import _ReplicatingBalancer
    from repro.datacenter.cluster import MultiserverCluster

    if isinstance(station, MultiserverCluster):
        return Qualification(
            False, "gang-scheduled MultiserverCluster requires the event engine"
        )
    if isinstance(station, _ReplicatingBalancer):
        return Qualification(
            False, "cloning/hedging balancer requires the event engine"
        )
    if type(station) is not Server:
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
    gaps: np.ndarray,
    services: np.ndarray,
    carry: Tuple[float, list],
    lane_jobs: int = _LANE_JOBS,
) -> Tuple[np.ndarray, Tuple[float, list], int]:
    """:func:`_heap_scan`'s waits and carry, computed as parallel lanes.

    Returns the heap scan's two values and the number of lanes that
    needed repair.

    The block's arrival times are summed once, as the heap scan sums
    them, and cut into K lanes of ``lane_jobs`` jobs.  Pass 1 runs lane
    0 from the carried free times and every other lane from an empty
    system; pass 2 runs lane k from lane k - 1's pass-1 end.  Two FCFS
    paths whose free times agree once each is clamped at the current
    arrival start every later job at the same instant (a free time
    below the arrival acts as the arrival itself), so lane k's pass-2
    waits are exact when lane k - 1 is and its two end states agree
    clamped at lane k's first arrival.  A lane that fails the check is
    recomputed by :func:`_scan_core` from the true end of the lane
    before it, and the chain continues from there; the ``n mod
    lane_jobs`` tail runs scalar too.

    Waits are ``==`` to :func:`_heap_scan`'s.  The carried free list is
    equal to the heap scan's after clamping at the clock: free times
    below the clock may differ, and no later wait can see them.
    """
    clock, free = carry
    n = gaps.shape[0]
    lanes = n // lane_jobs
    if not lanes:
        return (*_heap_scan(gaps, services, carry), 0)
    arrivals = np.cumsum(gaps)
    arrivals += clock
    span = lanes * lane_jobs
    lane_arrivals = arrivals[:span].reshape(lanes, lane_jobs)
    by_step = lane_arrivals.T.copy()
    service_steps = services[:span].reshape(lanes, lane_jobs).T.copy()
    starts = np.empty_like(by_step)
    start_free = sorted(free)

    ends = np.zeros((len(free), lanes))
    ends[:, 0] = start_free
    _run_lanes(by_step, service_steps, ends, starts)
    exact = np.empty_like(ends)
    exact[:, 0] = start_free
    exact[:, 1:] = ends[:, :-1]
    _run_lanes(by_step, service_steps, exact, starts)

    waits = np.empty(n)
    np.subtract(
        starts.T, lane_arrivals, out=waits[:span].reshape(lanes, lane_jobs)
    )

    # Lane k is exact iff lane k - 1 is and its two ends agree clamped at
    # lane k's first arrival; a repair re-checks the lane after it.
    firsts = by_step[0]
    agree = np.equal(
        np.maximum(ends[:, :-1], firsts[1:]),
        np.maximum(exact[:, :-1], firsts[1:]),
    ).all(axis=0)
    repaired = settled = 0
    for lane in (np.flatnonzero(~agree) + 1).tolist():
        if lane <= settled:
            continue
        while True:
            low, high = lane * lane_jobs, (lane + 1) * lane_jobs
            state = exact[:, lane - 1].tolist()
            waits[low:high] = _scan_core(
                arrivals[low:high], services[low:high], state
            )
            state.sort()
            exact[:, lane] = state
            repaired += 1
            lane += 1
            if lane == lanes or np.array_equal(
                np.maximum(ends[:, lane - 1], firsts[lane]),
                np.maximum(exact[:, lane - 1], firsts[lane]),
            ):
                break
        settled = lane

    free = exact[:, -1].tolist()
    if span < n:
        waits[span:] = _scan_core(arrivals[span:], services[span:], free)
    return waits, (float(arrivals[-1]), free), repaired


def _ggc_scan(
    gaps: np.ndarray,
    services: np.ndarray,
    carry: Tuple[float, list, int],
) -> Tuple[np.ndarray, Tuple[float, list, int]]:
    """One G/G/c block on the lanes or the heap scan, whichever pays.

    ``carry`` is ``(clock, free, scalar_blocks)``: the heap scan's carry
    plus how many more blocks the guard keeps on the scalar scan.  Both
    kernels give the same waits, so the choice never moves a result.
    """
    clock, free, scalar_blocks = carry
    lanes = gaps.shape[0] // _LANE_JOBS
    if scalar_blocks or lanes < _LANE_MIN_LANES_PER_CORE * len(free):
        waits, (clock, free) = _heap_scan(gaps, services, (clock, free))
        return waits, (clock, free, max(scalar_blocks - 1, 0))
    waits, (clock, free), repaired = _lane_scan(gaps, services, (clock, free))
    if repaired > _LANE_MAX_REPAIRED * lanes:
        scalar_blocks = _LANE_REPROBE_BLOCKS
    return waits, (clock, free, scalar_blocks)


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

    # Either recurrence maps (gaps, services, carry) to (waits, carry)
    # and keeps the clock — the time of the last arrival — in carry[0].
    if cores == 1:
        block, carry = _lindley_block, (0.0, 0.0, 0.0)
    else:
        block, carry = _ggc_scan, (0.0, [0.0] * cores, 0)
    # The carry and the job count live with the experiment, so a later
    # run() continues this sample path under a cumulative budget, as on
    # the event engine.
    carry = experiment._fastpath_carry or carry
    jobs = source.generated

    stats = experiment.stats
    progress = experiment._progress
    while not stats.all_converged:
        remaining = jobs_budget - jobs
        if remaining <= 0:
            break
        n = BLOCK_JOBS if BLOCK_JOBS < remaining else remaining
        gaps = interarrival.sample_block(arrival_rng, n)
        services = service.sample_block(service_rng, n)
        if speed != 1.0:
            services = services / speed
        waits, carry = block(gaps, services, carry)
        responses = waits + services if wants_response else None
        for feed, kind in feeds:
            feed(responses if kind == "response" else waits)
        jobs += n
        if progress is not None:
            progress.poll(experiment)

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
