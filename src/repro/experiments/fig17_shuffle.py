"""Fig 17 / §6.2: MapReduce shuffle under heavy incast.

Hosts on one ToR run an all-to-all shuffle (every task sends a fixed-size
flow to every task on every other host).  The paper's finding: DCTCP's
*median* FCT is slightly better, but its tail is far worse (1.5× at p99,
~6.7× at the max) because straggler hosts cannot catch up; ExpressPass's
credit scheduling keeps the tail tight.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics.fct import percentile
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MS, SEC, US
from repro.topology import LinkSpec, single_switch
from repro.workloads import shuffle_specs


def run_point(
    protocol: str,
    n_hosts: int = 8,
    tasks_per_host: int = 2,
    flow_bytes: int = 100 * KB,
    rate_bps: int = 10 * GBPS,
    seed: int = 1,
    horizon_ps: int = 2 * SEC,
    ep_params: Optional[ExpressPassParams] = None,
) -> dict:
    sim = Simulator(seed=seed)
    base_rtt = 20 * US
    harness = get_harness(protocol, rate_bps, base_rtt, ep_params)
    spec = harness.adapt_link(LinkSpec(rate_bps=rate_bps, prop_delay_ps=2 * US))
    topo = single_switch(sim, n_hosts, link=spec)
    harness.install(sim, topo.net)

    rng = sim.rng("shuffle-jitter")
    specs = shuffle_specs(n_hosts, tasks_per_host, flow_bytes,
                          jitter_ps=100 * US, rng=rng)
    flows = [
        harness.flow(topo.hosts[s.src], topo.hosts[s.dst], s.size_bytes,
                     start_ps=s.start_ps)
        for s in specs
    ]
    sim.run(until=horizon_ps)
    fcts = [f.fct_ps / 1e9 for f in flows if f.completed]  # milliseconds
    completed = len(fcts)
    if completed == 0:
        raise RuntimeError(f"{protocol}: no shuffle flow completed")
    return {
        "protocol": protocol,
        "flows": len(flows),
        "completed": completed,
        "fct_ms_p50": percentile(fcts, 50),
        "fct_ms_p99": percentile(fcts, 99),
        "fct_ms_max": max(fcts),
        "data_drops": sum(f.data_drops for f in flows),
    }


def run(protocols: Sequence[str] = ("expresspass", "dctcp"), n_hosts: int = 8,
        tasks_per_host: int = 2, flow_bytes: int = 100 * KB,
        rate_bps: int = 10 * GBPS, seed: int = 1, horizon_ps: int = 2 * SEC,
        ep_params: Optional[ExpressPassParams] = None) -> ExperimentResult:
    rows = [run_point(p, n_hosts, tasks_per_host, flow_bytes, rate_bps, seed,
                      horizon_ps, ep_params)
            for p in protocols]
    return ExperimentResult(
        name="Fig 17 shuffle workload FCT (median / p99 / max)",
        columns=["protocol", "flows", "completed", "fct_ms_p50",
                 "fct_ms_p99", "fct_ms_max", "data_drops"],
        rows=rows,
    )
