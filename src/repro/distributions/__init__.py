"""Random-variable substrate for stochastic queuing simulation.

BigHouse characterizes workloads as distributions of inter-arrival and
service times rather than traces or binaries.  This package provides:

- analytic distributions (:class:`Exponential`, :class:`Gamma`,
  :class:`Erlang`, :class:`LogNormal`, :class:`Weibull`, :class:`Pareto`,
  :class:`Uniform`, :class:`Deterministic`),
- the two-phase balanced-means :class:`HyperExponential` used to model
  high-variance (Cv > 1) empirical workloads,
- :class:`EmpiricalDistribution`, the histogram/inverse-CDF representation
  BigHouse ships its measured workloads in (compact, < 1 MB),
- wrappers (:class:`Scaled`, :class:`Shifted`, :class:`Truncated`,
  :class:`Mixture`) used e.g. to scale inter-arrival times to vary load,
- :func:`fit_mean_cv`, the moment-matching fitter used to synthesize the
  Table-1 workload models from their published moments.

All distributions are immutable, stateless samplers: randomness enters
only through the ``numpy.random.Generator`` handed to :meth:`sample`.
"""

from repro import _lazy_exports

__all__ = [
    "Distribution",
    "DistributionError",
    "BoundedPareto",
    "Choice",
    "Deterministic",
    "Erlang",
    "Exponential",
    "Gamma",
    "LogNormal",
    "Pareto",
    "Uniform",
    "Weibull",
    "HyperExponential",
    "EmpiricalDistribution",
    "Mixture",
    "PrefetchContractError",
    "PrefetchSampler",
    "DEFAULT_BLOCK",
    "Scaled",
    "Shifted",
    "Truncated",
    "fit_mean_cv",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Distribution": "repro.distributions.base",
    "DistributionError": "repro.distributions.base",
    "BoundedPareto": "repro.distributions.continuous",
    "Deterministic": "repro.distributions.continuous",
    "Erlang": "repro.distributions.continuous",
    "Exponential": "repro.distributions.continuous",
    "Gamma": "repro.distributions.continuous",
    "LogNormal": "repro.distributions.continuous",
    "Pareto": "repro.distributions.continuous",
    "Uniform": "repro.distributions.continuous",
    "Weibull": "repro.distributions.continuous",
    "Choice": "repro.distributions.discrete",
    "HyperExponential": "repro.distributions.hyperexponential",
    "EmpiricalDistribution": "repro.distributions.empirical",
    "Mixture": "repro.distributions.transforms",
    "Scaled": "repro.distributions.transforms",
    "Shifted": "repro.distributions.transforms",
    "Truncated": "repro.distributions.transforms",
    "DEFAULT_BLOCK": "repro.distributions.prefetch",
    "PrefetchContractError": "repro.distributions.prefetch",
    "PrefetchSampler": "repro.distributions.prefetch",
    "fit_mean_cv": "repro.distributions.fitting",
})
