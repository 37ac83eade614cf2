"""Distributed (master/slave) simulation — Fig. 3 of the paper.

BigHouse parallelizes *measurement*, not the event loop: a master runs
warm-up + calibration once and fixes the histogram bin scheme; each slave
then runs an independent replica of the simulation under a unique random
seed (its own warm-up, its own lag calibration) and streams accepted
observations into a local histogram.  The master monitors the aggregate
accepted-sample size, signals convergence when Eqs. 2-3 are satisfied by
the merged sample, and reduces the slave histograms into final estimates
— "a single program executed with high fan-out ... After completion,
their results are then merged (map/reduce)".

Because each slave must burn its own warm-up + 5000-observation
calibration before contributing samples, calibration is the Amdahl
bottleneck that limits speedup beyond ~16 slaves (Fig. 10).

Backends: ``serial`` (in-process, deterministic, used in tests),
``process`` (one OS process per slave via :mod:`multiprocessing`), and
``remote`` (slaves hosted by :mod:`repro.parallel.agent` processes on
other machines over the socket transport in
:mod:`repro.parallel.transport` — the paper's 4-hosts × n-slaves
deployment shape).  :mod:`repro.parallel.pool` adds the reusable-pool
mode — persistent workers that accept successive ``configure``
messages instead of dying after one experiment — used by
:mod:`repro.sweep` to amortize spawn cost across a whole parameter
sweep; the pool schedules over either transport.

Importing the master is cheap: ``from repro.parallel import
ParallelSimulation`` loads the master, the protocol, the recovery
policies and the statistics they merge, and no transport.  A run
imports the transports, the fault plan's injector and the checkpoint
records when it starts, before it forks the first slave, so a forked
slave imports nothing of its own.
"""

from repro import _lazy_exports

__all__ = [
    "DeltaTracker",
    "histogram_delta",
    "SlaveReport",
    "ParallelError",
    "ParallelResult",
    "ParallelSimulation",
    "PoolError",
    "PoolJobError",
    "PoolStats",
    "WorkerPool",
    "LocalPipeTransport",
    "RemoteTransport",
    "Transport",
    "TransportCapacityError",
    "TransportError",
    "WorkerEndpoint",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "DeltaTracker": "repro.parallel.protocol",
    "ParallelError": "repro.parallel.protocol",
    "SlaveReport": "repro.parallel.protocol",
    "histogram_delta": "repro.parallel.protocol",
    "ParallelResult": "repro.parallel.master",
    "ParallelSimulation": "repro.parallel.master",
    "PoolError": "repro.parallel.pool",
    "PoolJobError": "repro.parallel.pool",
    "PoolStats": "repro.parallel.pool",
    "WorkerPool": "repro.parallel.pool",
    "LocalPipeTransport": "repro.parallel.transport",
    "RemoteTransport": "repro.parallel.transport",
    "Transport": "repro.parallel.transport",
    "TransportCapacityError": "repro.parallel.transport",
    "TransportError": "repro.parallel.transport",
    "WorkerEndpoint": "repro.parallel.transport",
})
