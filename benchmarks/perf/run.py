"""The benchmark of the whole stack: one command, every metric, every check.

    PYTHONPATH=src python benchmarks/perf/run.py [--seed N] [--sets 2]

runs the five workloads with tracing off (three passes, interleaved across
workloads, each (workload, pass) in a fresh process), then one traced
replication per workload and the layer cells, checks every output, prints
every metric by name with its unit, and writes one result file plus the
per-layer table ``layers.md``.

    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

is the form ``BENCHMARK.json`` declares: one workload, ending in one JSON
line with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that file names.

This file starts processes and does arithmetic on what they print; it never
imports the program.  ``worker.py`` runs the workloads, ``cells.py`` the
layer cells, ``fold.py`` folds profiles, ``compare.py`` holds the metric
definitions and the rule for comparing two versions.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Sequence

import compare
from compare import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in DECLARED["workloads"]]
RUN_SECONDS = DECLARED["run_seconds"]

DEFAULT_SEED = 20120401
PASSES = 3
#: The form BENCHMARK.json declares makes two, and times each cell three
#: times for 0.1 s, not five times for 0.2 s: the driver's hundred-odd runs
#: must fit its time cap even in a spell when the host runs half again
#: slower.  It sets up once more than it passes (``worker.py --mode
#: setup``): the driver holds ``setup_s`` to its bound on the median of ten
#: runs alone, and the median of two set-ups is their mean.
DRIVER_PASSES = 2
DRIVER_SETUPS = 1
DRIVER_CELLS = ["--repeats", "3", "--seconds", "0.1"]
#: A worker that prints nothing for this long is killed: the harness must
#: end, and stop what it started, even if the program hangs.
WORKER_TIMEOUT_S = 150.0
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Names BENCHMARK.json declares per layer.  The layers it lists a
#: ``self_share`` for are the ones reported there; any other module is folded
#: into ``other`` (layers.md lists all).  End-to-end metrics that depend on
#: the seed too much for a bound across seeds are listed there too, unbounded
#: (README.md).
PER_LAYER_NAMES = [entry["name"] for entry in DECLARED["per_layer"]]
PROFILE_LAYERS = [name[:-len(".self_share")] for name in PER_LAYER_NAMES
                  if name.endswith(".self_share")]


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not: the program misbehaved)."""


# -- processes ----------------------------------------------------------------

def run_script(script: str, arguments: List[str]) -> dict:
    """Run one of this directory's scripts; its last output line as JSON.

    ``setup_s`` is added: host seconds from spawning the process until it
    printed ``ready`` (scripts that never do report the whole run).
    """
    command = [sys.executable, str(HERE / script), *arguments]
    spawned = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        first = process.stdout.readline()
        setup = time.perf_counter() - spawned
        rest = process.stdout.read()
        process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    lines = (first + rest).splitlines()
    if process.returncode != 0 or not lines:
        raise HarnessError(
            f"{' '.join(command)} ended with code {process.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = setup
    return record


def run_worker(workload: str, seed: int, mode: str, scale: float,
               smoke: bool) -> dict:
    arguments = ["--workload", workload, "--seed", str(seed), "--mode", mode,
                 "--scale", repr(scale)]
    return run_script("worker.py", arguments + ["--smoke"] * smoke)


def run_cells(smoke: bool, arguments: Sequence[str] = ()) -> dict:
    quick = ["--smoke", "--seconds", "0.01", "--repeats", "1"]
    cells = run_script("cells.py", quick if smoke else [*arguments])
    del cells["setup_s"]
    return cells


# -- end to end ---------------------------------------------------------------

def summarise(passes: List[dict], setups: Sequence[dict] = ()) -> dict:
    """The eight end-to-end metrics of one workload from its passes, plus
    what the checks and the layer metrics need.

    The three timings are *paced*: corrected by ``host_pace``, the time a
    fixed reference loop took beside them over its nominal time
    (``worker.py``), so that they read as on a host of nominal speed.  The
    unpaced values are kept as ``*_raw``.  ``setups`` are processes that
    only set up: more samples of ``setup_s``.
    """
    done = [[r for r in p["replications"] if "events" in r] for p in passes]
    raw = [r["events"] / r["wall_s"] for p in done for r in p]
    paces = [r["host_pace"] for p in done for r in p]
    rates = [rate * pace for rate, pace in zip(raw, paces)]
    first = done[0]
    ops = sum(len(p["replications"]) for p in passes)
    failed = sum(bool(r["failed"]) for p in passes for r in p["replications"])
    per_pass = len(passes[0]["replications"])
    walls = [sum(r["wall_s"] / r["host_pace"] for r in p["replications"])
             for p in passes]
    return {
        "wall_s": statistics.median(walls),
        "wall_s_passes": walls,
        "wall_s_raw": statistics.median(
            sum(r["wall_s"] for r in p["replications"]) for p in passes),
        "events_per_s": statistics.median(rates) if rates else 0.0,
        "events_per_s_n": len(rates),
        "events_per_s_min": min(rates, default=0.0),
        "events_per_s_max": max(rates, default=0.0),
        "events_per_s_raw": statistics.median(raw) if raw else 0.0,
        "host_pace": statistics.median(paces) if paces else 1.0,
        "events_to_converge": sum(r["events"] for r in first),
        "mean_rel_err": (statistics.median(r["rel_err"] for r in first)
                         if first else 1.0),
        "ci_coverage": sum(r["covered"] for r in first) / per_pass,
        "ci_coverage_step": 1.0 / per_pass,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(
            p["setup_s"] / p["setup_pace"] for p in [*passes, *setups]),
        "setup_s_raw": statistics.median(
            p["setup_s"] for p in [*passes, *setups]),
        "failed_ops": failed,
        "ops": ops,
    }


def check_passes(workload: str, passes: List[dict]) -> List[str]:
    """What is wrong with a workload's outputs (empty: nothing)."""
    problems = []
    for record in (r for p in passes for r in p["replications"]):
        if record["failed"]:
            problem = str(record["failed"]).strip().splitlines()[-1]
            problems.append(
                f"{workload}: seed {record['seed']} failed: {problem}")
        elif record["engine"] != passes[0]["engine"]:
            problems.append(
                f"{workload}: seed {record['seed']} ran the "
                f"{record['engine']} engine, not {passes[0]['engine']}")
    reference = [r.get("digest") for r in passes[0]["replications"]]
    for index, later in enumerate(passes[1:], start=2):
        if [r.get("digest") for r in later["replications"]] != reference:
            problems.append(
                f"{workload}: pass {index} did not reproduce pass 1 "
                "(same seeds, different estimates or event counts)")
    return problems


def run_passes(workloads: List[str], seed: int, passes: int, scale: float,
               smoke: bool, sets: int = 1) -> List[Dict[str, List[dict]]]:
    """``sets`` sets of ``passes`` passes over ``workloads``.

    Interleaved -- pass 1 of every set over every workload, then pass 2 --
    so that drift of the machine over minutes lands on every workload and
    every set alike.
    """
    records: List[Dict[str, List[dict]]] = [
        {name: [] for name in workloads} for _ in range(sets)]
    for index in range(passes):
        for number, of_set in enumerate(records, start=1):
            for name in workloads:
                record = run_worker(name, seed, "pass", scale, smoke)
                of_set[name].append(record)
                wall = sum(r["wall_s"] for r in record["replications"])
                print(f"  set {number}/{sets} pass {index + 1}/{passes} "
                      f"{name}: {wall:.2f} s", file=sys.stderr)
    return records


def print_end_to_end(workload: str, summary: dict) -> None:
    print(f"\n{workload}  (tracing off; "
          f"{summary['ops']} ops = replications x passes)")
    for metric in END_TO_END:
        value = summary[metric.name]
        line = (f"  {metric.name:20s} {value:>16.6g} {metric.unit:9s} "
                f"[{metric.time} time, {metric.better} is better]")
        if metric.name == "wall_s":
            line += "  passes: " + " ".join(
                f"{v:.3f}" for v in summary["wall_s_passes"])
            line += f"  raw={summary['wall_s_raw']:.4g}"
        elif metric.name == "events_per_s":
            line += (f"  n={summary['events_per_s_n']} "
                     f"min={summary['events_per_s_min']:.6g} "
                     f"max={summary['events_per_s_max']:.6g} "
                     f"raw={summary['events_per_s_raw']:.6g} "
                     f"host_pace={summary['host_pace']:.4g}")
        elif metric.name == "setup_s":
            line += f"  raw={summary['setup_s_raw']:.4g}"
        elif metric.name == "failed_ops":
            line += f"  of {summary['ops']} ops"
        print(line)


# -- per layer ----------------------------------------------------------------

def layer_metrics(pass_record: dict, trace: dict,
                  cells: dict) -> Dict[str, dict]:
    """Every per-layer metric of one workload, by name.

    Three sources: the cells (the same for every workload), the folded
    profile of one replication, and exact counts read from the public
    result fields of one untraced pass.
    """
    metrics = dict(cells)

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    layers = {name: dict(entry) for name, entry in trace["layers"].items()}
    other = layers.setdefault("other", {"self_s": 0.0, "calls": 0})
    for name in [n for n in layers if n not in PROFILE_LAYERS]:
        entry = layers.pop(name)
        other["self_s"] += entry["self_s"]
        other["calls"] += entry["calls"]
    total = sum(entry["self_s"] for entry in layers.values())
    for name in PROFILE_LAYERS:
        entry = layers.get(name, {"self_s": 0.0, "calls": 0})
        put(f"{name}.self_share", entry["self_s"] / total, "fraction")
        put(f"{name}.self_s", entry["self_s"], "s")
        put(f"{name}.calls", entry["calls"], "count")
    put("trace_overhead_x", trace["profiled_s"] / trace["unprofiled_s"], "x")

    done = [r for r in pass_record["replications"] if "events" in r]
    summary = summarise([pass_record])
    for metric in END_TO_END:
        if metric.name in PER_LAYER_NAMES:
            put(metric.name, summary[metric.name], metric.unit)
    lags = [lag for r in done for lag in r["lags"]]
    jobs = sum(r.get("jobs", 0) for r in done)
    cancelled = [r["cancelled_per_job"] for r in done
                 if "cancelled_per_job" in r]
    parallel = [r for r in done if "rounds" in r]
    skews = [max(r["slave_events"]) * len(r["slave_events"])
             / sum(r["slave_events"]) for r in parallel]
    put("host_pace", summary["host_pace"], "x")
    put("core.statistic.accept_ratio",
        sum(r["accepted"] for r in done) / sum(r["observed"] for r in done)
        if done else 0.0, "fraction")
    put("core.statistic.lag_median",
        statistics.median(lags) if lags else 0.0, "observations")
    put("engine.events_per_job",
        sum(r["events"] for r in done if "jobs" in r) / jobs if jobs else 0.0,
        "events/job")
    put("datacenter.balancers.cancelled_per_job",
        statistics.median(cancelled) if cancelled else 0.0, "replicas/job")
    put("parallel.master.rounds",
        statistics.median(r["rounds"] for r in parallel) if parallel else 0.0,
        "rounds")
    put("parallel.master.serial_share",
        statistics.median(r["serial_share"] for r in parallel)
        if parallel else 0.0, "fraction")
    put("parallel.master.slave_event_skew",
        statistics.median(skews) if skews else 0.0, "max/mean")
    return metrics


def print_per_layer(workload: str, metrics: Dict[str, dict],
                    skip: dict) -> None:
    print(f"\n{workload}  (one replication under cProfile; exact counts "
          "from one untraced pass)")
    for name, entry in metrics.items():
        if name not in skip:
            print(f"  {name:48s} {entry['value']:>14.6g} {entry['unit']}")


def check_trace(workload: str, trace: dict) -> List[str]:
    if trace["same_result"]:
        return []
    return [f"{workload}: the profiled replication gave another result"]


def layers_table(workload: str, trace: dict) -> List[str]:
    """The flame-style share table of one workload, as markdown lines."""
    layers = trace["layers"]
    total = sum(entry["self_s"] for entry in layers.values())
    lines = [
        f"## {workload}",
        "",
        f"Seed {trace['seed']}: {trace['unprofiled_s']:.3f} s unprofiled, "
        f"{trace['profiled_s']:.3f} s under cProfile (`trace_overhead_x` = "
        f"{trace['profiled_s'] / trace['unprofiled_s']:.2f}).",
        "",
        "| layer | self_share | self_s | calls |",
        "|---|---:|---:|---:|",
    ]
    for name, entry in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        if entry["self_s"] or entry["calls"]:
            lines.append(f"| `{name}` | {entry['self_s'] / total:.3f} "
                         f"| {entry['self_s']:.3f} | {entry['calls']} |")
    lines += [f"| **sum** | {1.0:.3f} | {total:.3f} | |", ""]
    return lines


def write_layers(path: Path, header: dict, traces: Dict[str, dict],
                 per_layer: Dict[str, dict], cells: dict) -> None:
    lines = [
        "# Where the host time goes, layer by layer",
        "",
        "Generated by `benchmarks/perf/run.py`; do not edit.  "
        f"Commit `{header['commit']}`, seed {header['seed']}, "
        f"python {header['python']}, numpy {header['numpy']}, "
        f"scipy {header['scipy']}, {header['nproc']} cores"
        + (", **noisy** (load average above core count at start)"
           if header["noisy"] else "") + ".",
        "",
        "Shares are fractions of the *profiled* self time of one replication "
        "per workload; cProfile charges Python calls but not work inside C, "
        "so use them to find candidates and `events_per_s` to measure.  "
        "Built-ins and numpy are charged to the layer that called them; "
        "`wait` is time blocked on another process.  See README.md.",
        "",
    ]
    for workload, trace in traces.items():
        lines += layers_table(workload, trace)
        lines += ["Exact counts from the untraced pass:", ""]
        for name in ("core.statistic.accept_ratio", "core.statistic.lag_median",
                     "engine.events_per_job",
                     "datacenter.balancers.cancelled_per_job",
                     "parallel.master.rounds", "parallel.master.serial_share",
                     "parallel.master.slave_event_skew"):
            entry = per_layer[workload][name]
            if entry["value"]:  # 0: the layer took no part in this workload
                lines.append(
                    f"- `{name}` = {entry['value']:.6g} {entry['unit']}")
        lines.append("")
    lines += ["## Cells (median time per operation; the same for every "
              "workload)", "", "| cell | value | unit |", "|---|---:|---|"]
    lines += [f"| `{name}` | {entry['value']:.4g} | {entry['unit']} |"
              for name, entry in cells.items()]
    path.write_text("\n".join(lines) + "\n")


# -- checks -------------------------------------------------------------------

def check_names(printed: Dict[str, set]) -> List[str]:
    """Every name BENCHMARK.json declares is well formed and was printed."""
    problems = []
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in DECLARED[section]:
            name = entry["name"]
            if not NAME.fullmatch(name):
                problems.append(f"BENCHMARK.json {section}: bad name {name!r}")
            elif name not in printed[section]:
                problems.append(
                    f"BENCHMARK.json {section}: {name} is not in the output")
    return problems


def check_sets(sets: List[dict]) -> tuple:
    """(problems, noise_floor): later sets against the first.

    ``noise_floor`` is the largest set-to-set difference seen per metric,
    in the terms of the metric's bound (a share, or an absolute amount).
    """
    problems: List[str] = []
    floor: Dict[str, dict] = {}
    for workload, first in sets[0].items():
        floor[workload] = {}
        for metric in END_TO_END:
            bound = compare.bound_of(metric, first)
            worst = 0.0
            for later in sets[1:]:
                a, b = first[metric.name], later[workload][metric.name]
                worse = metric.worse_by(a, b)
                worst = max(worst, abs(worse))
                if metric.exact and a != b:
                    problems.append(
                        f"{workload}: {metric.name} is {a!r} in one set and "
                        f"{b!r} in another; it must repeat exactly")
                elif worse > bound + 1e-12:
                    problems.append(
                        f"{workload}: {metric.name} {a:.6g} -> {b:.6g} "
                        f"between sets of the same code, beyond its bound")
            floor[workload][metric.name] = worst
    return problems, floor


def fingerprint(seed: int) -> dict:
    """Where and on what this result was measured."""
    def git(*arguments: str) -> str:
        try:
            return subprocess.run(
                ["git", *arguments], cwd=ROOT, text=True, check=True,
                capture_output=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""
    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    if git("status", "--porcelain", "--", "src", "benchmarks/perf"):
        commit += "+dirty"
    versions = subprocess.run(
        [sys.executable, "-c",
         "import json, platform, numpy, scipy; print(json.dumps("
         "[platform.python_version(), numpy.__version__, scipy.__version__]))"],
        text=True, check=True, capture_output=True).stdout
    python, numpy, scipy = json.loads(versions)
    load = os.getloadavg()[0]
    return {
        "commit": commit, "seed": seed, "python": python, "numpy": numpy,
        "scipy": scipy, "nproc": os.cpu_count(), "loadavg_start": load,
        "noisy": load > (os.cpu_count() or 1),
    }


# -- the two commands -----------------------------------------------------------

def one_workload(args) -> int:
    """The form BENCHMARK.json declares: one workload, one JSON line."""
    scale = args.seconds / RUN_SECONDS
    workload = args.workload
    passes = run_passes([workload], args.seed,
                        1 if args.trace else DRIVER_PASSES, scale,
                        args.smoke)[0][workload]
    setups = [run_worker(workload, args.seed, "setup", scale, args.smoke)
              for _ in range(0 if args.trace else DRIVER_SETUPS)]
    summary = summarise(passes, setups)
    if args.trace:
        trace = run_worker(workload, args.seed, "trace", scale, args.smoke)
        cells = run_cells(args.smoke, DRIVER_CELLS)
        values = layer_metrics(passes[0], trace, cells)
        declared = DECLARED["per_layer"]
        print("per layer (cells)")
        for name, entry in cells.items():
            print(f"  {name:48s} {entry['value']:>14.6g} {entry['unit']}")
        print_per_layer(workload, values, skip=cells)
        problems = check_trace(workload, trace)
    else:
        print_end_to_end(workload, summary)
        values = {m.name: {"value": summary[m.name], "unit": m.unit}
                  for m in END_TO_END}
        declared = DECLARED["end_to_end"]
        problems = []
    problems += check_passes(workload, passes)
    missing = [entry["name"] for entry in declared
               if entry["name"] not in values]
    if missing:
        raise HarnessError(f"declared but not measured: {missing}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": summary["ops"],
        "failed": summary["failed_ops"],
        "metrics": {entry["name"]: values[entry["name"]]
                    for entry in declared},
    }))
    return 1 if problems else 0


def everything(args) -> int:
    """Every workload, every metric, every check; one result file."""
    header = fingerprint(args.seed)
    passes = 1 if args.smoke else PASSES
    problems: List[str] = []
    print("end to end, tracing off", file=sys.stderr)
    records = run_passes(WORKLOADS, args.seed, passes, 1.0, args.smoke,
                         args.sets)
    sets = [{name: summarise(of_workload)
             for name, of_workload in of_set.items()} for of_set in records]
    for of_set in records:
        for name, of_workload in of_set.items():
            problems += check_passes(name, of_workload)
    last = records[-1]

    print("traced pass and layer cells", file=sys.stderr)
    traces = {name: run_worker(name, args.seed, "trace", 1.0, args.smoke)
              for name in WORKLOADS}
    cells = run_cells(args.smoke)
    per_layer = {name: layer_metrics(last[name][0], traces[name], cells)
                 for name in WORKLOADS}
    for name, trace in traces.items():
        problems += check_trace(name, trace)

    for name in WORKLOADS:
        print_end_to_end(name, sets[0][name])
    print("\nper layer (cells are the same for every workload)")
    for name, entry in cells.items():
        print(f"  {name:48s} {entry['value']:>14.6g} {entry['unit']}")
    for name in WORKLOADS:
        print_per_layer(name, per_layer[name], skip=cells)

    set_problems, noise_floor = check_sets(sets)
    problems += set_problems
    problems += check_names({
        "workloads": set(sets[0]),
        "end_to_end": {m.name for m in END_TO_END},
        "per_layer": set.intersection(*(set(m) for m in per_layer.values())),
    })

    result = {
        **header,
        "smoke": args.smoke,
        "passes": passes,
        "sets": sets,
        "noise_floor": noise_floor,
        "per_layer": per_layer,
        "layers": {name: trace["layers"] for name, trace in traces.items()},
        "problems": problems,
        "correct": not problems,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    write_layers(args.layers_out, header, traces, per_layer, cells)
    print(f"\nwrote {args.out} and {args.layers_out}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if header["noisy"]:
        print("NOISY: load average was above the core count at start")
    print("all checks passed" if not problems else
          f"{len(problems)} checks failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="replication seeds are derived from it")
    parser.add_argument("--smoke", action="store_true",
                        help="one replication per workload, one pass, loose "
                             "targets: checks the harness, measures nothing")
    parser.add_argument("--sets", type=int, default=1,
                        help="run the end-to-end section this many times and "
                             "fail unless the sets agree within the bounds")
    parser.add_argument("--out", type=Path,
                        default=HERE / "results" / "latest.json")
    parser.add_argument("--layers-out", type=Path,
                        default=HERE / "results" / "latest.layers.md")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run only this workload and end in one JSON line")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="with --workload: how long to measure, as a "
                             "share of the declared run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        return one_workload(args) if args.workload else everything(args)
    except HarnessError as error:
        print(f"benchmark could not run: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
