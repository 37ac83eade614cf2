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

from repro import _lazy_exports

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

__getattr__, __dir__ = _lazy_exports(globals(), {
    "BinScheme": "repro.core.histogram",
    "Histogram": "repro.core.histogram",
    "HistogramError": "repro.core.histogram",
    "runs_up_counts": "repro.core.runs_test",
    "runs_up_statistic": "repro.core.runs_test",
    "runs_up_passes": "repro.core.runs_test",
    "find_lag": "repro.core.runs_test",
    "z_value": "repro.core.confidence",
    "mean_sample_size": "repro.core.confidence",
    "quantile_sample_size": "repro.core.confidence",
    "MetricTargets": "repro.core.convergence",
    "judge": "repro.core.convergence",
    "mean_confidence_interval": "repro.core.convergence",
    "Phase": "repro.core.statistic",
    "Statistic": "repro.core.statistic",
    "Estimate": "repro.core.statistic",
    "StatisticError": "repro.core.statistic",
    "StatisticsCollection": "repro.core.collection",
    "BatchMeansEstimator": "repro.core.batch_means",
    "calibrate_batch_size": "repro.core.batch_means",
    "mser": "repro.core.warmup",
    "mser5": "repro.core.warmup",
    "suggest_warmup": "repro.core.warmup",
})
