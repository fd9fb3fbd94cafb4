"""§6.3 realistic-workload machinery shared by Figs 18–21 and Table 3.

Builds the paper's oversubscribed Clos (scaled down per DESIGN.md §2),
generates Poisson arrivals with Table 2 flow sizes at a target ToR-uplink
load, runs them under any protocol harness, and returns per-flow and
fabric-wide measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics.fct import FctStats, fct_stats_by_bucket
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, SEC, US
from repro.topology import LinkSpec, oversubscribed_clos
from repro.workloads import (
    WORKLOADS,
    FlowSizeDistribution,
    poisson_specs,
)
from repro.workloads.generators import poisson_arrival_rate_fps


@dataclass
class RealisticRun:
    """Everything measured from one realistic-workload simulation."""

    protocol: str
    workload: str
    load: float
    flows: List[object]
    fct_by_bucket: Dict[str, FctStats]
    completed: int
    avg_queue_kb: float
    max_queue_kb: float
    data_drops: int
    credit_waste_ratio: float
    meta: dict = field(default_factory=dict)

    def bucket_stats(self) -> Dict[str, dict]:
        """Per-size-bucket FCT statistics as plain data, bucket-sorted."""
        return {
            bucket: {
                "flows": stats.count,
                "avg_fct_ms": stats.mean_s * 1e3,
                "p99_fct_ms": stats.p99_s * 1e3,
            }
            for bucket, stats in sorted(self.fct_by_bucket.items())
        }


def run_realistic(
    protocol: str,
    workload: str = "web_search",
    load: float = 0.6,
    n_flows: int = 1500,
    rate_bps: int = 10 * GBPS,
    core_rate_bps: Optional[int] = None,
    seed: int = 1,
    ep_params: Optional[ExpressPassParams] = None,
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = 1 * SEC,
    chaos_plan: Optional[dict] = None,
) -> RealisticRun:
    """One (protocol, workload, load) simulation on the scaled Clos fabric.

    ``size_cap_bytes`` truncates samples so a single 100 MB+ elephant cannot
    dominate a scaled-down run (recorded as a substitution in DESIGN.md);
    pass ``None`` for the unclipped distribution.  The run ends when all
    flows complete or ``drain_ps`` after the last arrival.  ``chaos_plan``
    (a ``FaultPlan.to_dict()`` dict, e.g. compiled from a scenario spec's
    ``chaos`` section) injects faults into the fabric during the run; event
    node names must match the Clos (``tor0``/``agg0``/``h0``...).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}: {sorted(WORKLOADS)}")
    dist: FlowSizeDistribution = WORKLOADS[workload]
    sim = Simulator(seed=seed)
    base_rtt = 60 * US
    harness = get_harness(protocol, rate_bps, base_rtt, ep_params,
                          min_rto_ps=2 * MS)
    core_rate = core_rate_bps or rate_bps
    edge = harness.adapt_link(LinkSpec(rate_bps=rate_bps, prop_delay_ps=4 * US))
    core = harness.adapt_link(LinkSpec(rate_bps=core_rate, prop_delay_ps=4 * US))
    topo = oversubscribed_clos(sim, edge=edge, core=core)
    if chaos_plan is not None:
        from repro.chaos import ChaosController, FaultPlan
        ChaosController(sim, topo.net, FaultPlan.from_dict(chaos_plan))
    harness.install(sim, topo.net)

    hosts = topo.hosts
    hosts_per_tor = len(hosts) // len(topo.tors)
    cross_fraction = 1 - (hosts_per_tor - 1) / (len(hosts) - 1)
    uplink_capacity = sum(p.rate_bps for p in topo.tor_uplink_ports)
    mean_size = dist.mean_bytes if size_cap_bytes is None else min(
        dist.mean_bytes, size_cap_bytes)
    rate_fps = poisson_arrival_rate_fps(load, uplink_capacity, mean_size,
                                        cross_fraction)
    rng = sim.rng("workload")
    specs = poisson_specs(rng, dist, n_flows, len(hosts), rate_fps)
    if size_cap_bytes is not None:
        specs = [
            s if s.size_bytes <= size_cap_bytes else
            type(s)(s.src, s.dst, size_cap_bytes, s.start_ps)
            for s in specs
        ]
    flows = [
        harness.flow(hosts[s.src], hosts[s.dst], s.size_bytes, start_ps=s.start_ps)
        for s in specs
    ]

    horizon = specs[-1].start_ps + drain_ps
    sim.run(until=horizon)

    all_ports = topo.net.ports
    avg_q = max(
        (p.data_queue.stats.average_bytes(sim.now) for p in all_ports),
        default=0.0,
    )
    max_q = topo.net.max_data_queue_bytes()
    wasted = sum(getattr(f, "credits_wasted", 0) for f in flows)
    used = sum(getattr(f, "credits_used", 0) for f in flows)
    waste_ratio = wasted / (wasted + used) if (wasted + used) else 0.0
    return RealisticRun(
        protocol=protocol,
        workload=workload,
        load=load,
        flows=flows,
        fct_by_bucket=fct_stats_by_bucket(flows),
        completed=sum(1 for f in flows if f.completed),
        avg_queue_kb=avg_q / 1e3,
        max_queue_kb=max_q / 1e3,
        data_drops=topo.net.total_data_drops(),
        credit_waste_ratio=waste_ratio,
        meta={"n_flows": n_flows, "arrival_rate_fps": rate_fps,
              "mean_size": mean_size, "events": sim.events_processed},
    )
