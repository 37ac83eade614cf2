"""repro — a Python reproduction of BigHouse (ISPASS 2012).

BigHouse is a simulation infrastructure for data center systems built on
stochastic queuing simulation (SQS).  Instead of microarchitectural detail,
servers are modeled as a queuing network driven by empirically measured
inter-arrival and service-time distributions; a statistics package runs
every output metric through warm-up, calibration (runs-up independence
test), measurement, and convergence phases, terminating the simulation as
soon as the requested accuracy and confidence are reached.

Quickstart::

    from repro import Experiment, Server, Workload
    from repro.distributions import Exponential

    exp = Experiment(seed=42)
    workload = Workload(
        name="toy",
        interarrival=Exponential(rate=10.0),
        service=Exponential(rate=20.0),
    )
    server = Server(cores=1)
    exp.add_source(workload, target=server)
    exp.track_response_time(server, mean_accuracy=0.05, quantiles={0.95: 0.05})
    result = exp.run()
    print(result["response_time"].mean)

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — the statistics package (the paper's key machinery)
- :mod:`repro.engine` — discrete-event simulation engine
- :mod:`repro.distributions` — random-variable substrate
- :mod:`repro.workloads` — Table-1 workload models
- :mod:`repro.datacenter` — jobs, servers, queues, load balancers
- :mod:`repro.power` — power/performance models and power capping
- :mod:`repro.policies` — DreamWeaver and other schedulers
- :mod:`repro.parallel` — master/slave distributed simulation
- :mod:`repro.casestudies` — the paper's Section 3/4 experiments

Start-up: every package exports its names lazily.  ``import repro``
loads this module alone, and a package's name loads its defining module
on first use, so ``python -m repro --help`` loads neither numpy nor the
engine, and a single-process run loads none of the parallel stack.  A
module that only a cold path uses (a parallel run's transports, fault
plans and checkpoints) is imported where that path starts.
"""

__version__ = "1.0.0"

__all__ = ["Experiment", "Server", "Workload", "__version__"]


def _lazy_exports(namespace, table):
    """A package's ``(__getattr__, __dir__)`` over ``{name: module}``.

    Every package of ``repro`` exports its names through this: ``table``
    says which module defines each one, and that module is imported on
    the name's first use, then the value is cached in ``namespace`` (the
    package's ``globals()``) so later reads never come back here.
    """
    package = namespace["__name__"]

    def __getattr__(name):
        if name not in table:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        # What ``from module import name`` does; unlike
        # importlib.import_module, it shows under ``-X importtime``.
        value = getattr(__import__(table[name], fromlist=[name]), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *table})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "Experiment": "repro.engine.experiment",
    "Server": "repro.datacenter.server",
    "Workload": "repro.workloads.workload",
})
