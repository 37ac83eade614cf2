"""Compare result files of ``run.py``: did a change gain, regress, or neither?

    python benchmarks/perf/compare.py PARENT.json CHANGE.json \
        [PARENT2.json CHANGE2.json ...]

Files alternate parent, change.  Every *set* in a file is one run (``run.py
--sets N`` writes N of them), and the k-th parent run is paired with the
k-th change run.  Both sides must come from the same benchmark code, the
same ``--seed`` and the same settings.  One row is printed per (workload,
metric):

- ``gain``: the change wins at least 9/10 of the pairs (ties count for
  neither side), there are at least ten pairs, and the medians differ by
  more than the distance between the parent's own quartiles;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``: the run-to-run spread of either side is wider than the
  bound, so "no regression" cannot be told from noise -- unless every run of
  the change reads better than every run of the parent;
- ``unchanged`` otherwise.

Metrics that repeat exactly for a seed (``events_to_converge``,
``mean_rel_err``, ``ci_coverage``, ``failed_ops``) are compared as counts,
not as timings: any difference is reported, and is a regression when it is
worse by more than the bound.  Exit code 1 when any row is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

#: A gain needs this many pairs and this share of them won.
MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Metric:
    """One end-to-end metric and how much worse it may get."""

    name: str
    unit: str
    better: str  # "lower" | "higher"
    time: str  # "host" seconds/bytes of the simulator, or "simulated" results
    bound: float
    relative: bool = True  # bound is a share of the parent's value
    exact: bool = False  # repeats exactly for a seed: compared as a count

    def worse_by(self, parent: float, change: float) -> float:
        """How much worse ``change`` is than ``parent`` (negative: better),
        in the bound's own terms."""
        delta = change - parent if self.better == "lower" else parent - change
        if not self.relative:
            return delta
        return delta / abs(parent) if parent else (0.0 if not delta else
                                                   float("inf"))

    def spread(self, values: Sequence[float]) -> float:
        """Inter-quartile distance of a side's runs, in the bound's terms."""
        if len(values) < 2:
            return 0.0
        low, _, high = statistics.quantiles(values, n=4)
        if not self.relative:
            return high - low
        middle = statistics.median(values)
        return (high - low) / abs(middle) if middle else 0.0


#: The eight end-to-end metrics, reported per workload with tracing off.
#: ``ci_coverage``'s bound is "one seed": run.py writes it per workload into
#: each set as ``ci_coverage_step``.
END_TO_END: Tuple[Metric, ...] = (
    Metric("wall_s", "s", "lower", "host", 0.10),
    Metric("events_per_s", "events/s", "higher", "host", 0.10),
    Metric("events_to_converge", "events", "lower", "simulated", 0.01,
           exact=True),
    Metric("mean_rel_err", "fraction", "lower", "simulated", 0.01,
           relative=False, exact=True),
    Metric("ci_coverage", "fraction", "higher", "simulated", 0.0,
           relative=False, exact=True),
    Metric("peak_rss_mb", "MiB", "lower", "host", 0.10),
    Metric("setup_s", "s", "lower", "host", 0.10),
    Metric("failed_ops", "count", "lower", "simulated", 0.0,
           relative=False, exact=True),
)


def bound_of(metric: Metric, run: dict) -> float:
    """The metric's bound for one workload's run."""
    if metric.name == "ci_coverage":
        return run.get("ci_coverage_step", 0.0)
    return metric.bound


def judge(metric: Metric, parent: List[float], change: List[float],
          bound: float) -> Tuple[str, str]:
    """(verdict, detail) for one metric on one workload, paired runs."""
    pairs = list(zip(parent, change))
    parent = [a for a, _ in pairs]
    change = [b for _, b in pairs]
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    worse = metric.worse_by(parent_median, change_median)
    # Float noise in an equal comparison must not read as "worse than 0".
    over_bound = worse > bound + 1e-12

    if metric.exact:
        if parent == change:
            return "unchanged", f"{parent_median:g} on both sides"
        verdict = "regression" if over_bound else (
            "gain" if worse < 0 else "unchanged")
        return verdict, f"count {parent_median:g} -> {change_median:g}"

    wins = sum(metric.worse_by(a, b) < 0 for a, b in pairs)
    losses = sum(metric.worse_by(a, b) > 0 for a, b in pairs)
    detail = (f"{parent_median:.6g} -> {change_median:.6g} {metric.unit} "
              f"({-worse:+.1%}), won {wins}/{len(pairs)} lost {losses}, "
              f"iqr parent {metric.spread(parent):.1%} "
              f"change {metric.spread(change):.1%}")
    low, _, high = (statistics.quantiles(parent, n=4) if len(parent) > 1
                    else (parent[0],) * 3)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(change_median - parent_median) > high - low):
        return "gain", detail
    sign = 1 if metric.better == "lower" else -1
    all_worse = min(sign * b for b in change) > max(sign * a for a in parent)
    all_better = max(sign * b for b in change) < min(sign * a for a in parent)
    noisy = max(metric.spread(parent), metric.spread(change)) > bound
    if over_bound and (all_worse or not noisy):
        return "regression", detail
    if noisy and not all_better:
        return "unresolved", detail
    return "unchanged", detail


def runs_of(paths: Sequence[Path]) -> List[dict]:
    """Every set of every file, in order: one entry per run."""
    runs: List[dict] = []
    for path in paths:
        runs.extend(json.loads(path.read_text())["sets"])
    return runs


def compare(parent_runs: List[dict], change_runs: List[dict]) -> List[tuple]:
    """Rows ``(workload, metric, verdict, detail)``."""
    rows = []
    for workload in parent_runs[0]:
        if any(workload not in run for run in change_runs):
            rows.append((workload, "*", "unresolved",
                         "workload missing on the change side"))
            continue
        for metric in END_TO_END:
            parent = [run[workload][metric.name] for run in parent_runs]
            change = [run[workload][metric.name] for run in change_runs]
            verdict, detail = judge(
                metric, parent, change,
                bound_of(metric, parent_runs[0][workload]))
            rows.append((workload, metric.name, verdict, detail))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        usage="compare.py PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]",
    )
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("files alternate parent, change: give an even number")
    rows = compare(runs_of(args.files[0::2]), runs_of(args.files[1::2]))
    for workload, metric, verdict, detail in rows:
        print(f"{workload:16s} {metric:20s} {verdict:11s} {detail}")
    return 1 if any(row[2] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
