"""The Workload abstraction: an (inter-arrival, service) distribution pair.

"Each workload comprises a pair of distributions ... the client request
inter-arrival distribution and the response service time distribution"
(Section 2.2).  Load is varied by scaling the inter-arrival distribution
(Section 3.1), which :meth:`Workload.at_load` / :meth:`Workload.at_qps`
implement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.engine.simulation import seeded_rng

if TYPE_CHECKING:
    from repro.distributions import Distribution


class WorkloadError(ValueError):
    """Raised for invalid workload parameters."""


@dataclass(frozen=True)
class Workload:
    """An immutable workload model.

    Attributes
    ----------
    name:
        Workload identifier (e.g. ``"google"``).
    interarrival:
        Distribution of gaps between successive task arrivals (seconds).
    service:
        Distribution of task service demands (seconds at unit speed).
    servers_needed:
        Optional distribution of each job's *server need* — how many
        servers it holds simultaneously for its whole service (gang
        scheduling; see ``repro.datacenter.cluster.MultiserverCluster``).
        ``None`` (the default) means every job needs one server, which
        is the classic BigHouse task model.
    """

    name: str
    interarrival: Distribution
    service: Distribution
    servers_needed: Optional[Distribution] = None

    # -- derived rates -----------------------------------------------------

    @property
    def arrival_rate(self) -> float:
        """Mean arrivals per second (lambda)."""
        return 1.0 / self.interarrival.mean()

    @property
    def peak_qps(self) -> float:
        """Saturation throughput of one unit-speed core (mu = 1/E[S])."""
        return 1.0 / self.service.mean()

    @property
    def mean_servers_needed(self) -> float:
        """Mean server need E[k] per job (1.0 for classic workloads)."""
        if self.servers_needed is None:
            return 1.0
        return self.servers_needed.mean()

    def offered_load(self, cores: int = 1, speed: float = 1.0) -> float:
        """Utilization rho = lambda * E[S] * E[k] / (cores * speed).

        For classic workloads E[k] = 1 and this is the textbook formula;
        a multiserver-job workload consumes E[k] server-seconds of
        capacity per job-second of service, so its need distribution
        scales the load it offers to the pool.
        """
        if cores < 1:
            raise WorkloadError(f"cores must be >= 1, got {cores}")
        if speed <= 0:
            raise WorkloadError(f"speed must be > 0, got {speed}")
        return (
            self.arrival_rate * self.service.mean() * self.mean_servers_needed
            / (cores * speed)
        )

    # -- load scaling ---------------------------------------------------------

    def scale_interarrival(self, factor: float) -> "Workload":
        """New workload with inter-arrival gaps multiplied by ``factor``
        (factor < 1 means *more* load)."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be > 0, got {factor}")
        from repro.distributions import Scaled

        return replace(self, interarrival=Scaled(self.interarrival, factor))

    def scale_service(self, factor: float) -> "Workload":
        """New workload with service demands multiplied by ``factor``
        (the S_CPU slowdown knob of Fig. 4)."""
        if factor <= 0:
            raise WorkloadError(f"scale factor must be > 0, got {factor}")
        from repro.distributions import Scaled

        return replace(self, service=Scaled(self.service, factor))

    def at_load(self, load: float, cores: int = 1, speed: float = 1.0) -> "Workload":
        """New workload whose offered load on ``cores`` cores equals
        ``load`` (a fraction of saturation; the QPS%% axis of Figs. 4-5)."""
        if not 0.0 < load < 1.0:
            raise WorkloadError(f"load must be in (0, 1), got {load}")
        current = self.offered_load(cores=cores, speed=speed)
        return self.scale_interarrival(current / load)

    def with_servers_needed(self, distribution: Distribution) -> "Workload":
        """New workload whose jobs draw a server need from
        ``distribution`` (values are truncated to ints >= 1 at the
        source; a Choice over exact integers is the intended shape)."""
        if distribution.mean() < 1.0:
            raise WorkloadError(
                f"mean server need must be >= 1, got {distribution.mean()}"
            )
        return replace(self, servers_needed=distribution)

    def at_qps(self, qps: float) -> "Workload":
        """New workload with mean arrival rate ``qps`` per second."""
        if qps <= 0:
            raise WorkloadError(f"qps must be > 0, got {qps}")
        return self.scale_interarrival(self.arrival_rate / qps)

    # -- conversion ------------------------------------------------------------

    def as_empirical(
        self, rng: Optional[np.random.Generator] = None, n: int = 100_000
    ) -> "Workload":
        """Materialize both distributions as fine-grained empirical CDFs,
        the artifact shape BigHouse actually distributes (< 1 MB each)."""
        from repro.distributions import EmpiricalDistribution

        # 0xB16 ("BIG") is the historical fixed seed; changing it changes
        # every shipped empirical workload bit-for-bit.
        rng = rng if rng is not None else seeded_rng(0xB16)
        return replace(
            self,
            interarrival=EmpiricalDistribution.from_distribution(
                self.interarrival, rng, n
            ),
            service=EmpiricalDistribution.from_distribution(self.service, rng, n),
        )
