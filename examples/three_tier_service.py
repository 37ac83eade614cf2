"""A three-tier web service as a routing network.

The paper notes its shipped workloads "all model simple client-server
round-trip interactions" and that "the BigHouse object model must be
extended if a user wishes to model a workload with more complicated
communication patterns (e.g., modeling all three tiers of a three-tier
web service)" — this example is that extension, built from the public
API:

    front-end -> app tier -> database, with 30% of app-tier requests
    looping back for a second app pass (think template + AJAX), and the
    database hit only on the 60% of requests that miss the app cache.

The routing matrix expresses the whole topology; traffic equations give
the closed-form per-tier loads to sanity-check the simulation against.

Run:  python examples/three_tier_service.py
"""

from repro import Experiment, Workload
from repro.datacenter import RoutingNetwork, Server
from repro.distributions import Deterministic, Exponential
from repro.theory import traffic_equations

ARRIVAL_RATE = 40.0  # external requests/s

# Tier service means (seconds).
FRONT_MEAN = 0.004
APP_MEAN = 0.010
DB_MEAN = 0.012

# Routing: front -> app always; app -> app 30% (second pass),
# app -> db 60% x 70%? Keep it simple and explicit:
#   from front: to app 1.0
#   from app:   back to app 0.3, to db 0.42, exit 0.28
#   from db:    exit 1.0
ROUTING = [
    [0.0, 1.0, 0.0],
    [0.0, 0.3, 0.42],
    [0.0, 0.0, 0.0],
]


class NetworkEntry:
    """Adapter so an Experiment source feeds the network's front tier."""

    def __init__(self, network):
        self.network = network

    def bind(self, sim):
        if self.network.sim is None:
            self.network.bind(sim)

    def arrive(self, job):
        job.size = None  # each tier draws its own demand
        job.remaining = None
        self.network.arrive(job, 0)


def main() -> None:
    experiment = Experiment(seed=77, warmup_samples=500,
                            calibration_samples=3000)
    front = Server(cores=2, service_distribution=Exponential.from_mean(FRONT_MEAN),
                   name="front")
    app = Server(cores=4, service_distribution=Exponential.from_mean(APP_MEAN),
                 name="app")
    db = Server(cores=2, service_distribution=Exponential.from_mean(DB_MEAN),
                name="db")
    network = RoutingNetwork([front, app, db], ROUTING, name="3tier")

    workload = Workload(
        "requests", Exponential(rate=ARRIVAL_RATE), Deterministic(0.0)
    )
    experiment.add_source(workload, target=NetworkEntry(network),
                          draw_sizes=False)

    experiment.track("end_to_end", mean_accuracy=0.05,
                     quantiles={0.95: 0.05})
    network.on_exit(
        lambda job: experiment.record("end_to_end", job.response_time)
    )
    result = experiment.run(max_events=20_000_000)

    estimate = result["end_to_end"]
    rates = traffic_equations([ARRIVAL_RATE, 0.0, 0.0], ROUTING)
    loads = [
        rates[0] * FRONT_MEAN / 2,
        rates[1] * APP_MEAN / 4,
        rates[2] * DB_MEAN / 2,
    ]
    print("== Three-tier service ==")
    print(f"effective tier rates (traffic equations): "
          f"front={rates[0]:.1f}/s app={rates[1]:.1f}/s db={rates[2]:.1f}/s")
    print(f"tier utilizations: front={loads[0]:.2f} app={loads[1]:.2f} "
          f"db={loads[2]:.2f}")
    print(f"end-to-end latency: mean={estimate.mean * 1e3:.2f} ms, "
          f"p95={estimate.quantiles[0.95] * 1e3:.2f} ms "
          f"(converged={result.converged})")
    visits = app.completed_jobs / max(1, network.exits)
    print(f"mean app-tier visits per request: {visits:.2f} "
          f"(theory {rates[1] / ARRIVAL_RATE:.2f})")


if __name__ == "__main__":
    main()
