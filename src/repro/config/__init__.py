"""Declarative experiment configuration.

The original BigHouse is driven by "configuration files and concise Java
code" (Section 2); this package is the configuration-file half: a JSON
document describes the workload, the server pool, the balancer, and the
output metrics, and :func:`build_experiment` wires it all up.
"""

from repro import _lazy_exports

__all__ = [
    "ConfigError",
    "load_config",
    "build_distribution",
    "build_workload",
    "build_experiment",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "ConfigError": "repro.config.loader",
    "build_distribution": "repro.config.loader",
    "build_experiment": "repro.config.loader",
    "build_workload": "repro.config.loader",
    "load_config": "repro.config.loader",
})
