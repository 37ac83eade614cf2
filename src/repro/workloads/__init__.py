"""Workload models: empirically-characterized task populations.

A :class:`Workload` pairs an inter-arrival distribution with a service
distribution (Section 2.2).  :mod:`repro.workloads.models` ships the five
Table-1 workloads (DNS, Mail, Shell, Google, Web) synthesized from their
published moments; :mod:`repro.workloads.generator` turns workloads into
explicit traces and back.
"""

from repro import _lazy_exports

__all__ = [
    "Workload",
    "WorkloadError",
    "WorkloadSpec",
    "TABLE1_SPECS",
    "dns",
    "mail",
    "shell",
    "google",
    "web",
    "by_name",
    "all_names",
    "generate_trace",
    "workload_from_trace",
    "RateProfile",
    "VariableRateSource",
    "diurnal_profile",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Workload": "repro.workloads.workload",
    "WorkloadError": "repro.workloads.workload",
    "TABLE1_SPECS": "repro.workloads.models",
    "WorkloadSpec": "repro.workloads.models",
    "dns": "repro.workloads.models",
    "google": "repro.workloads.models",
    "mail": "repro.workloads.models",
    "shell": "repro.workloads.models",
    "web": "repro.workloads.models",
    "by_name": "repro.workloads.models",
    "all_names": "repro.workloads.models",
    "generate_trace": "repro.workloads.generator",
    "workload_from_trace": "repro.workloads.generator",
    "RateProfile": "repro.workloads.timevarying",
    "VariableRateSource": "repro.workloads.timevarying",
    "diurnal_profile": "repro.workloads.timevarying",
})
