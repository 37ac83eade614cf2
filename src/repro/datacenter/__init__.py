"""Queuing-network objects: jobs, servers, queues, balancers, clusters.

BigHouse represents a data center as "an interrelated network of queues
and power/performance models" (Section 1).  The unit of work is a
:class:`~repro.datacenter.job.Job` (a request/query/transaction); a
:class:`~repro.datacenter.server.Server` owns ``k`` cores and a queueing
discipline, supports run-time speed changes (DVFS) and whole-server
pause/resume (deep sleep), and notifies listeners on job completion so
output metrics and multi-tier forwarding can be wired up from outside.
"""

from repro import _lazy_exports

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
    "JobClass",
    "MultiClassSource",
    "PriorityQueue",
    "job_class_of",
    "track_per_class_response",
    "NetworkError",
    "RoutingNetwork",
]

__getattr__, __dir__ = _lazy_exports(globals(), {
    "Job": "repro.datacenter.job",
    "FCFSQueue": "repro.datacenter.disciplines",
    "LIFOQueue": "repro.datacenter.disciplines",
    "SJFQueue": "repro.datacenter.disciplines",
    "QueueingDiscipline": "repro.datacenter.disciplines",
    "Server": "repro.datacenter.server",
    "ServerError": "repro.datacenter.server",
    "Source": "repro.datacenter.source",
    "TraceSource": "repro.datacenter.source",
    "CloningBalancer": "repro.datacenter.balancers",
    "JoinShortestQueue": "repro.datacenter.balancers",
    "LoadBalancer": "repro.datacenter.balancers",
    "PowerOfTwoChoices": "repro.datacenter.balancers",
    "RandomBalancer": "repro.datacenter.balancers",
    "RoundRobinBalancer": "repro.datacenter.balancers",
    "SpeculativeRetryBalancer": "repro.datacenter.balancers",
    "Cluster": "repro.datacenter.cluster",
    "ClusterError": "repro.datacenter.cluster",
    "MultiserverCluster": "repro.datacenter.cluster",
    "Rack": "repro.datacenter.cluster",
    "ProcessorSharingServer": "repro.datacenter.processor_sharing",
    "SRPTServer": "repro.datacenter.srpt",
    "ClosedLoopClients": "repro.datacenter.closedloop",
    "NetworkError": "repro.datacenter.network",
    "RoutingNetwork": "repro.datacenter.network",
    "JobClass": "repro.datacenter.multiclass",
    "MultiClassSource": "repro.datacenter.multiclass",
    "PriorityQueue": "repro.datacenter.multiclass",
    "job_class_of": "repro.datacenter.multiclass",
    "track_per_class_response": "repro.datacenter.multiclass",
})
