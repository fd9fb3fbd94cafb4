"""Traffic-pattern generators.

Generators produce :class:`FlowSpec` lists (src index, dst index, size,
start time); the experiment harness binds them to hosts and a transport.
Keeping specs protocol-agnostic means every baseline sees the *identical*
arrival sequence for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.units import SEC
from repro.workloads.distributions import FlowSizeDistribution


@dataclass(frozen=True)
class FlowSpec:
    """One flow to create: host indices, size in bytes, start picosecond."""

    src: int
    dst: int
    size_bytes: int
    start_ps: int


def poisson_arrival_rate_fps(load: float, uplink_capacity_bps: float,
                             mean_flow_bytes: float,
                             cross_fraction: float = 1.0) -> float:
    """Flow arrival rate (flows/s) hitting ``load`` on the ToR uplinks.

    ``uplink_capacity_bps`` is the *total* ToR uplink capacity of the fabric
    and ``cross_fraction`` the fraction of random-pair traffic that actually
    crosses ToR uplinks (1 - (hosts_per_tor - 1)/(hosts - 1) for uniform
    peers).  The paper sets its target load at the ToR up-links the same way.
    """
    if not 0 < load:
        raise ValueError("load must be positive")
    return load * uplink_capacity_bps / (mean_flow_bytes * 8 * cross_fraction)


def poisson_specs(
    rng,
    dist: FlowSizeDistribution,
    n_flows: int,
    n_hosts: int,
    arrival_rate_fps: float,
    start_ps: int = 0,
) -> List[FlowSpec]:
    """Exponential inter-arrivals, uniform random src != dst pairs."""
    if n_hosts < 2:
        raise ValueError("need at least two hosts")
    specs = []
    t = float(start_ps)
    for _ in range(n_flows):
        t += rng.expovariate(arrival_rate_fps) * SEC
        src = rng.randrange(n_hosts)
        dst = rng.randrange(n_hosts - 1)
        if dst >= src:
            dst += 1
        specs.append(FlowSpec(src, dst, dist.sample(rng), int(t)))
    return specs


def incast_specs(
    n_senders: int,
    receiver: int,
    bytes_per_sender: int,
    start_ps: int = 0,
    jitter_ps: int = 0,
    rng=None,
    n_hosts: Optional[int] = None,
) -> List[FlowSpec]:
    """Synchronized fan-in: ``n_senders`` hosts each send to ``receiver``.

    When ``n_senders`` exceeds the available hosts, senders wrap around
    (the paper: "multiple workers can share the same host").  ``jitter_ps``
    adds a uniform start offset per sender when ``rng`` is given.
    """
    pool = n_hosts if n_hosts is not None else n_senders + 1
    specs = []
    for i in range(n_senders):
        src = i % (pool - 1)
        if src >= receiver:
            src += 1
        offset = rng.randint(0, jitter_ps) if (rng and jitter_ps) else 0
        specs.append(FlowSpec(src, receiver, bytes_per_sender, start_ps + offset))
    return specs


def shuffle_specs(
    n_hosts: int,
    tasks_per_host: int,
    bytes_per_flow: int,
    start_ps: int = 0,
    jitter_ps: int = 0,
    rng=None,
) -> List[FlowSpec]:
    """MapReduce shuffle (§6.2): all-to-all, tasks² flows per host pair.

    Every host runs ``tasks_per_host`` tasks and each task sends
    ``bytes_per_flow`` to every task on every *other* host, so each host
    sends and receives ``(n_hosts-1) * tasks_per_host**2`` flows.
    """
    specs = []
    for src in range(n_hosts):
        for dst in range(n_hosts):
            if src == dst:
                continue
            for _ in range(tasks_per_host * tasks_per_host):
                offset = rng.randint(0, jitter_ps) if (rng and jitter_ps) else 0
                specs.append(FlowSpec(src, dst, bytes_per_flow, start_ps + offset))
    return specs

