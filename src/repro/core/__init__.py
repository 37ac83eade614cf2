"""The BigHouse statistics package — the paper's core contribution.

Every output metric (a :class:`Statistic`) proceeds through the four-phase
sequence of Fig. 2:

1. **Warm-up** — the first ``Nw`` observations are discarded to avoid
   cold-start bias.  With multiple metrics, no metric may leave warm-up
   until *all* have seen their ``Nw`` observations (barrier semantics,
   Section 2.3), coordinated by :class:`StatisticsCollection`.
2. **Calibration** — a 5000-observation sample is collected; the runs-up
   independence test (Knuth, TAOCP §3.3.2G) determines the minimum lag
   spacing ``l`` at which observations can be treated as independent, and
   the sample fixes the histogram bin scheme for quantile estimation
   (Chen & Kelton 2001).
3. **Measurement** — only every ``l``-th observation is accepted into the
   histogram (inflating simulated events by a factor of ``l``).
4. **Convergence** — the metric converges once the accepted sample size
   reaches ``max(Nm, Nq)`` (Eqs. 2–3), as :func:`judge` decides against
   the metric's :class:`MetricTargets`; the simulation stops when every
   metric has converged.
"""

from repro.core.histogram import BinScheme, Histogram, HistogramError
from repro.core.runs_test import runs_up_counts, runs_up_statistic, runs_up_passes, find_lag
from repro.core.confidence import z_value, mean_sample_size, quantile_sample_size
from repro.core.convergence import MetricTargets, judge, mean_confidence_interval
from repro.core.statistic import Phase, Statistic, Estimate, StatisticError
from repro.core.collection import StatisticsCollection
from repro.core.batch_means import BatchMeansEstimator, calibrate_batch_size
from repro.core.warmup import mser, mser5, suggest_warmup

__all__ = [
    "BinScheme",
    "Histogram",
    "HistogramError",
    "runs_up_counts",
    "runs_up_statistic",
    "runs_up_passes",
    "find_lag",
    "z_value",
    "mean_sample_size",
    "quantile_sample_size",
    "mean_confidence_interval",
    "MetricTargets",
    "judge",
    "Phase",
    "Statistic",
    "Estimate",
    "StatisticError",
    "StatisticsCollection",
    "BatchMeansEstimator",
    "calibrate_batch_size",
    "mser",
    "mser5",
    "suggest_warmup",
]
