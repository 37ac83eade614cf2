"""Queuing-network objects: jobs, servers, queues, balancers, clusters.

BigHouse represents a data center as "an interrelated network of queues
and power/performance models" (Section 1).  The unit of work is a
:class:`~repro.datacenter.job.Job` (a request/query/transaction); a
:class:`~repro.datacenter.server.Server` owns ``k`` cores and a queueing
discipline, supports run-time speed changes (DVFS) and whole-server
pause/resume (deep sleep), and notifies listeners on job completion so
output metrics and multi-tier forwarding can be wired up from outside.
"""

from repro.datacenter.job import Job
from repro.datacenter.disciplines import (
    FCFSQueue,
    LIFOQueue,
    SJFQueue,
    QueueingDiscipline,
)
from repro.datacenter.server import Server, ServerError
from repro.datacenter.source import Source, TraceSource
from repro.datacenter.balancers import (
    CloningBalancer,
    JoinShortestQueue,
    LoadBalancer,
    PowerOfTwoChoices,
    RandomBalancer,
    RoundRobinBalancer,
    SpeculativeRetryBalancer,
)
from repro.datacenter.cluster import Cluster, ClusterError, MultiserverCluster, Rack
from repro.datacenter.processor_sharing import ProcessorSharingServer
from repro.datacenter.srpt import SRPTServer
from repro.datacenter.closedloop import ClosedLoopClients, interactive_response_time
from repro.datacenter.network import (
    NetworkError,
    RoutingNetwork,
    traffic_equations,
)
from repro.datacenter.multiclass import (
    JobClass,
    MultiClassSource,
    PriorityQueue,
    cobham_waiting_times,
    job_class_of,
    track_per_class_response,
)

__all__ = [
    "Job",
    "QueueingDiscipline",
    "FCFSQueue",
    "LIFOQueue",
    "SJFQueue",
    "Server",
    "ServerError",
    "Source",
    "TraceSource",
    "LoadBalancer",
    "RandomBalancer",
    "RoundRobinBalancer",
    "JoinShortestQueue",
    "PowerOfTwoChoices",
    "CloningBalancer",
    "SpeculativeRetryBalancer",
    "Cluster",
    "ClusterError",
    "MultiserverCluster",
    "Rack",
    "ProcessorSharingServer",
    "SRPTServer",
    "ClosedLoopClients",
    "interactive_response_time",
    "JobClass",
    "MultiClassSource",
    "PriorityQueue",
    "cobham_waiting_times",
    "job_class_of",
    "track_per_class_response",
    "NetworkError",
    "RoutingNetwork",
    "traffic_equations",
]
