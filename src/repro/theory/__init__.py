"""Closed-form queuing theory — the pen-and-paper baseline.

The paper motivates simulation by the *failure* of analytic models:
M/M/1-style formulas assume exponential inter-arrivals and services,
G/G/k has no closed form, and few-moment approximations are often
inadequate (Gupta et al. [18]).  This package provides the standard
closed forms and approximations so that

- the acceptance harness (:mod:`repro.validation.acceptance`) can pin
  the simulator against exact results: M/M/1, M/M/k and M/G/1
  (:mod:`~repro.theory.queues`), M/G/1 under priorities, SJF and SRPT
  (:mod:`~repro.theory.scheduling`), Jackson networks and closed loops
  (:mod:`~repro.theory.networks`), PS cloning
  (:mod:`~repro.theory.cloning`) and the multiserver-job reference
  recurrence (:mod:`~repro.theory.multiserver`); and
- users can quantify, for their own workloads, how far the convenient
  analytic answer sits from the simulated one (the Fig. 5 exercise).
"""

from repro import _lazy_exports

__all__ = [
    "TheoryError",
    "mm1_mean_response",
    "mm1_mean_waiting",
    "mm1_quantile_response",
    "erlang_c",
    "mmk_mean_waiting",
    "mmk_mean_response",
    "mg1_mean_waiting",
    "mg1_mean_response",
    "gg1_mean_waiting_approx",
    "utilization",
    # M/G/1 under non-FCFS disciplines
    "cobham_waiting_times",
    "mg1_sjf_response",
    "mg1_srpt_response",
    # networks of queues
    "traffic_equations",
    "interactive_response_time",
    "mva_throughput",
    # multiserver-job ground truth (Baccelli-style recurrence)
    "MultiserverReference",
    "multiserver_recurrence",
    "simulate_reference",
    "reference_mean",
    # request-cloning closed forms
    "ps_clone_to_all_response",
    "ps_random_split_response",
    "ps_cloning_response",
    "min_of_exponentials_mean",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "min_of_exponentials_mean": "repro.theory.cloning",
    "ps_clone_to_all_response": "repro.theory.cloning",
    "ps_cloning_response": "repro.theory.cloning",
    "ps_random_split_response": "repro.theory.cloning",
    "MultiserverReference": "repro.theory.multiserver",
    "multiserver_recurrence": "repro.theory.multiserver",
    "reference_mean": "repro.theory.multiserver",
    "simulate_reference": "repro.theory.multiserver",
    "interactive_response_time": "repro.theory.networks",
    "mva_throughput": "repro.theory.networks",
    "traffic_equations": "repro.theory.networks",
    "cobham_waiting_times": "repro.theory.scheduling",
    "mg1_sjf_response": "repro.theory.scheduling",
    "mg1_srpt_response": "repro.theory.scheduling",
    "TheoryError": "repro.theory.queues",
    "erlang_c": "repro.theory.queues",
    "mg1_mean_response": "repro.theory.queues",
    "mg1_mean_waiting": "repro.theory.queues",
    "mm1_mean_response": "repro.theory.queues",
    "mm1_mean_waiting": "repro.theory.queues",
    "mm1_quantile_response": "repro.theory.queues",
    "mmk_mean_response": "repro.theory.queues",
    "mmk_mean_waiting": "repro.theory.queues",
    "gg1_mean_waiting_approx": "repro.theory.queues",
    "utilization": "repro.theory.queues",
})
