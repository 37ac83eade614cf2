"""One workload in one process: the part of the benchmark that calls ``repro``.

``run.py`` starts this file once per (workload, pass), so that set-up time
and peak memory are those of a fresh interpreter.  The process imports the
program, builds the workload's model, makes one throw-away run so that lazy
paths are paid before anything is timed (scipy's ``ppf`` cache, the fast
path's kernel code generation), prints ``ready``, takes the host's pace
(``host_pace``: how slowly a fixed reference loop runs right now), and then
either

- ``--mode pass``: runs the workload's seeded replications back to back,
  closed loop, one client, timing each from configuration to converged
  estimate, with the host's pace taken again after each; or
- ``--mode trace``: runs the first replication once untimed by the profiler
  and once under ``cProfile``, and folds the profile by layer (``fold.py``);
  or
- ``--mode setup``: stops there: one more sample of the set-up time.

The last line of output is one JSON object.  Only ``repro``'s public API is
called; replication seeds are derived here from ``--seed``, the program
receives built objects only.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import heapq
import json
import math
import os
import pstats
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro import Experiment, Server, Workload  # noqa: E402
from repro import theory  # noqa: E402
from repro.datacenter.balancers import CloningBalancer  # noqa: E402
from repro.datacenter.processor_sharing import (  # noqa: E402
    ProcessorSharingServer,
)
from repro.distributions import Exponential, HyperExponential  # noqa: E402
from repro.parallel import ParallelSimulation  # noqa: E402

import fold  # noqa: E402

METRIC = "response_time"

#: (mean accuracy, {quantile: accuracy}) -- the convergence target.
Targets = Tuple[float, Dict[float, float]]

#: What the event workloads converge to under ``--smoke``: a fraction of a
#: second each, yet past warm-up and calibration and inside the tolerances.
SMOKE_TARGETS: Targets = (0.05, {0.95: 0.10})


@dataclass(frozen=True)
class Spec:
    """One benchmark workload: how to build it and what it must produce."""

    name: str
    engine: str  # "event" | "fastpath" | "parallel": what must have run
    processes: int  # how many processes simulate at once
    seeds: int  # replications per pass when --seconds is run_seconds
    targets: Targets
    smoke_targets: Targets
    closed_form: float  # mean response time, from repro.theory
    #: Gross relative error beyond which an operation has failed.  Sized at
    #: six or more standard deviations of the simulator's own error at these
    #: targets: it catches a broken simulator, never an unlucky seed.
    tolerance: float
    build: Callable[[int, Targets], object]  # (seed, targets) -> .run()-able


def _tracked(experiment: Experiment, station, workload: Workload,
             targets: Targets) -> Experiment:
    experiment.add_source(workload, target=station)
    mean_accuracy, quantiles = targets
    experiment.track_response_time(
        station, mean_accuracy=mean_accuracy, quantiles=quantiles
    )
    return experiment


def build_mm1_event(seed: int, targets: Targets) -> Experiment:
    workload = Workload("mm1", Exponential(rate=0.8), Exponential(rate=1.0))
    return _tracked(Experiment(seed=seed, engine="event"), Server(cores=1),
                    workload, targets)


H2_SERVICE = HyperExponential.from_mean_cv(mean=1.0, cv=10.0)


def build_h2cv10_event(seed: int, targets: Targets) -> Experiment:
    workload = Workload("h2cv10", Exponential(rate=0.5), H2_SERVICE)
    return _tracked(Experiment(seed=seed, engine="event"), Server(cores=1),
                    workload, targets)


def build_mm4_fastpath(seed: int, targets: Targets) -> Experiment:
    workload = Workload("mm4", Exponential(rate=3.2), Exponential(rate=1.0))
    return _tracked(Experiment(seed=seed, engine="fastpath"), Server(cores=4),
                    workload, targets)


def build_clone_ps_cancel(seed: int, targets: Targets) -> Experiment:
    backends = [ProcessorSharingServer(name=f"ps{i}") for i in range(4)]
    workload = Workload("clone", Exponential(rate=8.0), Exponential(rate=10.0))
    return _tracked(Experiment(seed=seed, engine="event"),
                    CloningBalancer(backends, clones=4), workload, targets)


def mm1_factory(seed: int, mean_accuracy: float, p95_accuracy: float):
    """Module-level so the parallel master can hand it to its slaves."""
    return build_mm1_event(seed, (mean_accuracy, {0.95: p95_accuracy}))


def build_par2_process(seed: int, targets: Targets) -> ParallelSimulation:
    mean_accuracy, quantiles = targets
    return ParallelSimulation(
        mm1_factory,
        factory_kwargs={"mean_accuracy": mean_accuracy,
                        "p95_accuracy": quantiles[0.95]},
        n_slaves=2,
        master_seed=seed,
        backend="process",
    )


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("mm1_event", "event", 1, 8, (0.02, {0.95: 0.05}), SMOKE_TARGETS,
             theory.mm1_mean_response(0.8, 1.0), 0.20, build_mm1_event),
        Spec("h2cv10_event", "event", 1, 4, (0.05, {0.95: 0.10}),
             SMOKE_TARGETS, theory.mg1_mean_response(0.5, H2_SERVICE), 0.50,
             build_h2cv10_event),
        Spec("mm4_fastpath", "fastpath", 1, 10,
             (0.0015, {0.95: 0.003, 0.99: 0.003}), (0.01, {0.95: 0.02}),
             theory.mmk_mean_response(3.2, 1.0, 4), 0.05, build_mm4_fastpath),
        Spec("clone_ps_cancel", "event", 1, 2, (0.02, {0.95: 0.05}),
             SMOKE_TARGETS, theory.ps_clone_to_all_response(8.0, 10.0), 0.25,
             build_clone_ps_cancel),
        Spec("par2_process", "parallel", 2, 3, (0.007, {0.95: 0.015}),
             SMOKE_TARGETS,
             theory.mm1_mean_response(0.8, 1.0), 0.10, build_par2_process),
    )
}


def replication_seeds(seed: int, name: str, count: int) -> List[int]:
    """The seeds of a workload's replications, a pure function of --seed."""
    return [
        int.from_bytes(
            hashlib.blake2b(f"{seed}:{name}:{index}".encode(),
                            digest_size=4).digest(),
            "big",
        )
        for index in range(count)
    ]


def describe(model, result) -> dict:
    """The public result fields of one finished replication."""
    estimate = result[METRIC]
    record = {
        "converged": bool(result.converged),
        "mean": estimate.mean,
        "std": estimate.std,
        "mean_ci": list(estimate.mean_ci) if estimate.mean_ci else None,
        "quantiles": sorted(estimate.quantiles.items()),
        "accepted": estimate.accepted,
        "observed": estimate.observed,
    }
    if isinstance(model, ParallelSimulation):
        record.update(
            engine="parallel",
            events=result.total_events,
            # Each slave calibrates its own lag; the merged estimate has none.
            lags=[],
            rounds=result.rounds,
            serial_share=result.master_wall_time / result.wall_time,
            slave_events=list(result.slave_events),
        )
        return record
    if result.extras.get("engine") == "fastpath":
        engine = "fastpath"
    elif model.simulation.events_processed == result.events_processed:
        engine = "event"
    else:
        engine = "unknown"
    record.update(
        engine=engine,
        events=result.events_processed,
        lags=[estimate.lag],
        jobs=result.jobs_generated,
    )
    station = model.sources[0].target
    if isinstance(station, CloningBalancer):
        record["cancelled_per_job"] = (
            station.cancelled_replicas / station.completed_jobs
        )
    return record


def digest(record: dict) -> str:
    """Fingerprint of everything a seeded replication must reproduce."""
    fields = [record[key] for key in
              ("mean", "std", "lags", "accepted", "observed", "quantiles",
               "events")]
    return hashlib.blake2b(repr(fields).encode(), digest_size=8).hexdigest()


def failure(spec: Spec, record: dict) -> Optional[str]:
    """Why this replication counts as a failed operation, or None."""
    if not record["converged"]:
        return "did not converge"
    if record["rel_err"] > spec.tolerance:
        return (f"mean {record['mean']:.6g} is {record['rel_err']:.1%} off "
                f"the closed form {spec.closed_form:.6g} "
                f"(tolerance {spec.tolerance:.0%})")
    return None


def replicate(spec: Spec, seed: int, targets: Targets) -> dict:
    """One operation: configuration -> converged estimate, timed.

    An exception is recorded as a failed operation, not raised: one bad
    replication must not cost the run its other measurements.
    """
    started = time.perf_counter()
    try:
        model = spec.build(seed, targets)
        result = model.run()
        wall = time.perf_counter() - started
        record = describe(model, result)
    except Exception:  # noqa: BLE001 - boundary: counted in failed_ops
        return {"seed": seed, "wall_s": time.perf_counter() - started,
                "failed": traceback.format_exc(limit=8)}
    low, high = record["mean_ci"] or (1.0, 0.0)
    record.update(
        seed=seed, wall_s=wall, digest=digest(record),
        rel_err=abs(record["mean"] - spec.closed_form) / spec.closed_form,
        covered=low <= spec.closed_form <= high,
    )
    record["failed"] = failure(spec, record)
    return record


#: Host seconds ``reference_loop`` takes on the 2-core box the baseline was
#: measured on, in a quiet spell, by how many run at once (its two cores
#: slow each other by about a quarter).  It only scales the paced metrics so
#: that they read like unpaced ones there.
REFERENCE_S = {1: 0.0056, 2: 0.0070}


def _callback(value: float) -> float:
    return value + 1.0


def reference_loop() -> float:
    """Host seconds for a fixed piece of interpreter work that calls nothing
    of the program: timestamped entries through a heap of depth 32 with a
    callback per pop, then plain integer arithmetic."""
    started = time.perf_counter()
    heap: list = []
    seen: dict = {}
    now = 0.0
    for index in range(8000):
        now += math.log1p(index) * 0.001
        heapq.heappush(heap, (now, index, _callback))
        if len(heap) > 32:
            when, number, callback = heapq.heappop(heap)
            seen[number & 255] = callback(when)
    total = 0
    for index in range(60000):
        total += index * index
    return time.perf_counter() - started


def reference_s() -> float:
    """The median of seven reference loops."""
    return statistics.median(reference_loop() for _ in range(7))


def host_pace(processes: int) -> float:
    """How slowly the host runs right now: the reference loop's time over
    its nominal one (1.2: a fifth slower than nominal).

    The sandbox's cores change speed by half from one quarter of an hour to
    the next (README.md), which no single run can average out, so the
    set-up and every timed replication are followed by this and their
    timings corrected by it.  A workload that simulates in ``processes`` processes at once is
    paced by as many at once, each in a forked child: one core's speed says
    too little about two.
    """
    if processes == 1:
        return reference_s() / REFERENCE_S[1]
    children = []
    for _ in range(processes):
        reader, writer = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(reader)
                os.write(writer, repr(reference_s()).encode())
            finally:
                os._exit(0)
        os.close(writer)
        children.append((pid, reader))
    seconds = []
    for pid, reader in children:
        with os.fdopen(reader) as stream:
            seconds.append(float(stream.read()))
        os.waitpid(pid, 0)
    return statistics.fmean(seconds) / REFERENCE_S[processes]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_pass(spec: Spec, seeds: List[int], targets: Targets) -> dict:
    """All replications of one pass, back to back, each with the host's
    pace just before and just after it (their mean is its ``host_pace``)."""
    replications = []
    before = host_pace(spec.processes)
    for seed in seeds:
        record = replicate(spec, seed, targets)
        after = host_pace(spec.processes)
        record["host_pace"] = (before + after) / 2.0
        replications.append(record)
        before = after
    return {
        "workload": spec.name,
        "engine": spec.engine,
        "closed_form": spec.closed_form,
        "tolerance": spec.tolerance,
        "replications": replications,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_trace(spec: Spec, seed: int, targets: Targets) -> dict:
    """The same replication without and with the profiler, folded by layer."""
    plain = replicate(spec, seed, targets)
    # Only this process is profiled: a forked slave must run at full speed.
    os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    profiler = cProfile.Profile()
    profiler.enable()
    profiled = replicate(spec, seed, targets)
    profiler.disable()
    layers = fold.fold(pstats.Stats(profiler).stats)
    return {
        "workload": spec.name,
        "seed": seed,
        "unprofiled_s": plain["wall_s"],
        "profiled_s": profiled["wall_s"],
        "same_result": plain.get("digest") == profiled.get("digest")
        and plain.get("digest") is not None,
        "layers": layers,
    }


def warm(spec: Spec, targets: Targets) -> None:
    """Throw-away run: pay every lazy path before anything is timed."""
    build = build_mm1_event if spec.engine == "parallel" else spec.build
    build(0, targets).run(max_events=20_000)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "trace", "setup"),
                        default="pass")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of the spec's replications to run")
    parser.add_argument("--smoke", action="store_true",
                        help="one replication, loose convergence targets")
    args = parser.parse_args(argv)

    spec = SPECS[args.workload]
    targets = spec.smoke_targets if args.smoke else spec.targets
    count = 1 if args.smoke else max(1, round(spec.seeds * args.scale))
    seeds = replication_seeds(args.seed, spec.name, count)
    warm(spec, targets)
    print("ready", flush=True)
    output = {"setup_pace": host_pace(1)}
    if args.mode == "pass":
        output.update(run_pass(spec, seeds, targets))
    elif args.mode == "trace":
        output.update(run_trace(spec, seeds[0], targets))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
