"""Prebuilt experiments reproducing the paper's case studies.

- :mod:`repro.casestudies.google_search` — Section 3.1 / Figs. 4-5:
  power-management performance scaling for Google Web search.
- :mod:`repro.casestudies.dreamweaver_study` — Section 3.2 / Fig. 6:
  DreamWeaver's idleness-vs-latency trade-off.
- :mod:`repro.casestudies.power_capping_study` — Section 4 / Figs. 7-10:
  the cluster-wide power capping example used for all simulator
  performance measurements.
"""

from repro import _lazy_exports

__all__ = [
    "build_search_experiment",
    "latency_vs_qps",
    "INTERARRIVAL_KINDS",
    "dreamweaver_point",
    "dreamweaver_tradeoff",
    "CappedClusterExperiment",
    "build_capped_cluster",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "build_search_experiment": "repro.casestudies.google_search",
    "latency_vs_qps": "repro.casestudies.google_search",
    "INTERARRIVAL_KINDS": "repro.casestudies.google_search",
    "dreamweaver_point": "repro.casestudies.dreamweaver_study",
    "dreamweaver_tradeoff": "repro.casestudies.dreamweaver_study",
    "CappedClusterExperiment": "repro.casestudies.power_capping_study",
    "build_capped_cluster": "repro.casestudies.power_capping_study",
})
