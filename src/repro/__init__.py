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
"""

from repro.engine.experiment import Experiment
from repro.datacenter.server import Server
from repro.workloads.workload import Workload

__version__ = "1.0.0"

__all__ = ["Experiment", "Server", "Workload", "__version__"]
