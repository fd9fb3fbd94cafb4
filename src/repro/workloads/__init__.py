"""Workload generation: Table 2 flow-size distributions and traffic patterns
(Poisson arrivals at a target load, incast fan-in, MapReduce shuffle)."""

from repro.workloads.distributions import (
    CACHE_FOLLOWER,
    DATA_MINING,
    WEB_SEARCH,
    WEB_SERVER,
    WORKLOADS,
    FlowSizeDistribution,
)
from repro.workloads.generators import (
    FlowSpec,
    incast_specs,
    poisson_specs,
    shuffle_specs,
)
from repro.workloads.traces import dump_trace, load_trace

__all__ = [
    "FlowSizeDistribution",
    "DATA_MINING",
    "WEB_SEARCH",
    "CACHE_FOLLOWER",
    "WEB_SERVER",
    "WORKLOADS",
    "FlowSpec",
    "poisson_specs",
    "incast_specs",
    "shuffle_specs",
    "dump_trace",
    "load_trace",
]
