"""Pinned whole runs of every component that schedules its own events.

``tests/fixtures/event_engine_pins.json`` holds, per component and seed,
what a seeded sanitized run must reproduce: the event count and clock,
each metric's accepted/observed/mean, each histogram's payload digest,
the component's own counters, and the sanitizer's digest of every
dispatched event time.  A change to how the engine or a component
builds, pushes or dispatches event records must leave every row equal;
``PYTHONPATH=src python -m tests.test_event_pins`` re-records the
fixture, only for a change that is meant to move simulated numbers.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro.datacenter.balancers import SpeculativeRetryBalancer
from repro.datacenter.closedloop import ClosedLoopClients
from repro.datacenter.cluster import MultiserverCluster
from repro.datacenter.disciplines import SJFQueue
from repro.datacenter.multiclass import (
    JobClass,
    MultiClassSource,
    PriorityQueue,
    track_per_class_response,
)
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.server import Server
from repro.datacenter.srpt import SRPTServer
from repro.distributions import Choice, Exponential
from repro.engine.experiment import Experiment
from repro.engine.probes import PeriodicProbe
from repro.engine.simulation import seeded_rng
from repro.policies import DreamWeaver, OndemandGovernor
from repro.power import CubicDVFSPowerModel, DVFSPerformanceModel, ServerDVFS
from repro.power.capping import PowerCappingController
from repro.power.states import PowerStateMachine, acpi_default_states
from repro.workloads import RateProfile, VariableRateSource, generate_trace
from repro.workloads.workload import Workload

PINS_FILE = Path(__file__).parent / "fixtures" / "event_engine_pins.json"
PINNED_SEEDS = (21, 22)
MAX_EVENTS = 100_000


def mm_workload(arrival_rate=8.0, service_rate=10.0):
    return Workload(
        "pin", Exponential(rate=arrival_rate), Exponential(rate=service_rate)
    )


def new_experiment(seed):
    return Experiment(
        seed=seed, warmup_samples=200, calibration_samples=1000,
        sanitize=True,
    )


def track(experiment, station):
    experiment.track_response_time(
        station, mean_accuracy=0.1, quantiles={0.95: 0.1}
    )


def counters(holder, *names, calls=()):
    """Read the attributes ``names`` and the results of the zero-argument
    methods ``calls`` off ``holder`` once the run is over."""
    return lambda: {
        **{name: getattr(holder, name) for name in names},
        **{name: getattr(holder, name)() for name in calls},
    }


def fed_station(station, arrival_rate=8.0, service_rate=10.0, workload=None,
                names=("completed_jobs",), calls=()):
    """A case builder: one open-loop source feeding ``station()``."""

    def build(experiment, seed):
        target = station()
        experiment.add_source(
            workload or mm_workload(arrival_rate, service_rate),
            target=target,
        )
        track(experiment, target)
        return counters(target, *names, calls=calls)

    return build


def msj(backfill):
    return fed_station(
        lambda: MultiserverCluster(4, backfill=backfill),
        workload=mm_workload(3.0, 2.0).with_servers_needed(
            Choice([1, 2], [0.6, 0.4])
        ),
        names=("completed_jobs", "backfilled_jobs"),
    )


def spec_retry(experiment, seed):
    balancer = SpeculativeRetryBalancer(
        [ProcessorSharingServer(name=f"ps{i}") for i in range(3)],
        threshold=0.15, max_retries=1,
    )
    experiment.add_source(mm_workload(), target=balancer)
    track(experiment, balancer)
    return counters(
        balancer, "completed_jobs", "cancelled_replicas", "retries_issued"
    )


def variable_rate(experiment, seed):
    server = Server(cores=1)
    profile = RateProfile(
        [(0.0, 0.5), (10.0, 1.0), (20.0, 0.75)], period=30.0
    )
    source = VariableRateSource(mm_workload(), profile, server)
    source.bind(experiment.simulation)
    experiment.sources.append(source)
    track(experiment, server)
    return counters(source, "generated")


def closed_loop(experiment, seed):
    server = Server(cores=1)
    clients = ClosedLoopClients(
        8, Exponential.from_mean(1.0), Exponential.from_mean(0.1), server
    )
    clients.bind(experiment.simulation)
    track(experiment, server)
    return counters(clients, "completed", "thinking")


def multiclass(experiment, seed):
    classes = [
        JobClass("interactive", priority=0,
                 service=Exponential.from_mean(0.05), weight=1.0),
        JobClass("batch", priority=1,
                 service=Exponential.from_mean(0.2), weight=1.0),
    ]
    server = Server(cores=1, discipline=PriorityQueue())
    source = MultiClassSource(Exponential(rate=6.0), classes, server)
    source.bind(experiment.simulation)
    experiment.sources.append(source)
    track_per_class_response(experiment, server, classes, mean_accuracy=0.1)
    return counters(source, "generated", "generated_by_class")


def trace_source(experiment, seed):
    server = Server(cores=1)
    trace = generate_trace(mm_workload(), 4000, seeded_rng(seed + 1000))
    experiment.add_trace_source(trace, target=server)
    track(experiment, server)
    return counters(server, "completed_jobs")


def dreamweaver(experiment, seed):
    server = Server(cores=4)
    policy = DreamWeaver(
        server, delay_threshold=0.3, wake_transition=0.01,
        nap_transition=0.01,
    )
    policy.bind(experiment.simulation)
    experiment.add_source(mm_workload(12.0, 10.0), target=server)
    track(experiment, server)
    return counters(
        policy, "naps_taken", "wakes_by_timeout", "wakes_by_load",
        "nap_seconds",
    )


def capping_with_governor(experiment, seed):
    perf = DVFSPerformanceModel(alpha=0.9, f_min=0.5)
    servers, couplings = [], []
    for index in range(3):
        server = Server(cores=1, name=f"capped-{index}")
        experiment.bind(server)
        couplings.append(
            ServerDVFS(server, CubicDVFSPowerModel(100.0, 300.0), perf)
        )
        experiment.add_source(mm_workload(6.0, 10.0), target=server)
        servers.append(server)
    experiment.track("capping_level", mean_accuracy=0.2)
    controller = PowerCappingController(
        couplings, cluster_cap=600.0, epoch=0.5,
        # Offset by one watt: most epochs are uncapped, and a relative
        # accuracy target is undefined at a zero mean.
        on_capping_level=lambda watts: experiment.record(
            "capping_level", watts + 1.0
        ),
    )
    controller.bind(experiment.simulation)
    governor = OndemandGovernor(couplings[0], epoch=0.1)
    governor.bind(experiment.simulation)
    track(experiment, servers[0])
    return lambda: {
        "capping_epochs": controller.epochs_run,
        "governor_epochs": governor.epochs_run,
        "governor_boosts": governor.boosts,
        "frequencies": [coupling.frequency for coupling in couplings],
    }


def power_states(experiment, seed):
    server = Server(cores=1)
    machine = PowerStateMachine(server, acpi_default_states())
    machine.bind(experiment.simulation)
    states = itertools.cycle(["P1", "S3", "P0", "P2", "C1", "P0"])

    def step():
        if not machine.in_transition:
            machine.request_state(next(states))

    experiment.simulation.schedule_periodic(0.25, step)
    experiment.add_source(mm_workload(5.0, 10.0), target=server)
    track(experiment, server)
    return counters(machine, "transitions", "energy_joules", "residency")


def periodic_probe(experiment, seed):
    server = Server(cores=1)
    experiment.add_source(mm_workload(), target=server)
    experiment.track("queue_depth", mean_accuracy=0.2)
    probe = PeriodicProbe(
        lambda: server.outstanding + 1,  # + 1: the mean must not be zero
        lambda value: experiment.record("queue_depth", value),
        period=0.05,
    )
    probe.bind(experiment.simulation)
    track(experiment, server)
    return counters(probe, "samples_taken")


#: The busy-core and fully-idle time a ``Server`` has integrated.
SERVER_INTEGRALS = ("busy_core_seconds", "idle_seconds")

#: Each builder wires a component into a fresh sanitized experiment and
#: returns a function that reads the component's counters after the run.
PINNED_CASES = {
    "server-c1": fed_station(lambda: Server(cores=1)),
    "server-c4": fed_station(lambda: Server(cores=4), arrival_rate=32.0),
    "ps": fed_station(ProcessorSharingServer),
    "srpt": fed_station(SRPTServer),
    "msj-fcfs": msj(backfill=False),
    "msj-backfill": msj(backfill=True),
    "spec-retry": spec_retry,
    "variable-rate": variable_rate,
    "closed-loop": closed_loop,
    "multiclass": multiclass,
    "trace-source": trace_source,
    "dreamweaver": dreamweaver,
    "capping-governor": capping_with_governor,
    "power-states": power_states,
    "periodic-probe": periodic_probe,
    # The FCFS server again, also reading its busy- and idle-time
    # integrals, and once under a discipline that is not FCFS.
    "server-c1-accounting": fed_station(
        lambda: Server(cores=1), calls=SERVER_INTEGRALS
    ),
    "server-c4-accounting": fed_station(
        lambda: Server(cores=4), arrival_rate=32.0, calls=SERVER_INTEGRALS
    ),
    "server-sjf-c2": fed_station(
        lambda: Server(cores=2, discipline=SJFQueue()), arrival_rate=16.0,
        calls=SERVER_INTEGRALS,
    ),
}


def pinned_outcome(case, seed):
    """Everything a seeded run of ``case`` must reproduce, as plain data."""
    from repro.parallel.protocol import payload_digest

    experiment = new_experiment(seed)
    read_counters = PINNED_CASES[case](experiment, seed)
    result = experiment.run(max_events=MAX_EVENTS)
    outcome = {
        "case": case,
        "seed": seed,
        "events_processed": result.events_processed,
        "sim_time": result.sim_time,
        "metrics": {
            name: {
                "accepted": estimate.accepted,
                "observed": estimate.observed,
                "mean": estimate.mean,
            }
            for name, estimate in result.estimates.items()
        },
        "payload_digests": {
            statistic.name: payload_digest(statistic.histogram.to_payload())
            for statistic in experiment.stats
        },
        "counters": read_counters(),
        "event_digest": result.sanitizer.event_digest,
        "events_hashed": result.sanitizer.events_hashed,
    }
    # Through JSON so tuples take the fixture's form; floats round-trip
    # exactly.
    return json.loads(json.dumps(outcome))


class TestPinnedEventRuns:
    @pytest.mark.parametrize(
        "pin", json.loads(PINS_FILE.read_text()),
        ids=lambda pin: f"{pin['case']}-seed{pin['seed']}",
    )
    def test_run_equals_recorded_values(self, pin):
        assert pinned_outcome(pin["case"], pin["seed"]) == pin

    def test_every_case_is_pinned_at_every_seed(self):
        pinned = {
            (pin["case"], pin["seed"])
            for pin in json.loads(PINS_FILE.read_text())
        }
        assert pinned == {
            (case, seed) for case in PINNED_CASES for seed in PINNED_SEEDS
        }


if __name__ == "__main__":  # re-record the fixture (see module docstring)
    PINS_FILE.write_text(json.dumps(
        [pinned_outcome(case, seed)
         for case in PINNED_CASES for seed in PINNED_SEEDS],
        indent=1,
    ) + "\n")
