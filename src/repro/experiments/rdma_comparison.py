"""ExpressPass vs the deployed RDMA congestion controls (§8 context).

DCQCN and TIMELY achieve zero loss by running over PFC; ExpressPass
achieves it by scheduling data with credits.  This experiment puts all
three under the same synchronized incast and reports what each pays:

* data drops (should be 0 everywhere — different mechanisms, same goal),
* PFC pause events (only the RDMA schemes generate them),
* bottleneck queue (credits keep it near zero; PFC lets it grow to XOFF),
* incast FCT statistics.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics.fct import percentile
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, MS, SEC, US
from repro.topology import LinkSpec, single_switch
from repro.workloads import incast_specs


def run_point(
    protocol: str,
    fan_in: int = 8,
    response_kb: int = 64,
    rate_bps: int = 10 * GBPS,
    seed: int = 1,
) -> dict:
    sim = Simulator(seed=seed)
    base_rtt = 20 * US
    harness = get_harness(protocol, rate_bps, base_rtt)
    spec = harness.adapt_link(LinkSpec(rate_bps=rate_bps, prop_delay_ps=2 * US))
    topo = single_switch(sim, fan_in + 1, link=spec)
    harness.install(sim, topo.net)

    specs = incast_specs(fan_in, receiver=0, bytes_per_sender=response_kb * KB,
                         n_hosts=fan_in + 1)
    flows = [harness.flow(topo.hosts[s.src], topo.hosts[s.dst], s.size_bytes,
                          start_ps=s.start_ps) for s in specs]
    sim.run(until=2 * SEC)

    fcts = [f.fct_ps / 1e9 for f in flows if f.completed]
    pauses = 0
    for port in topo.net.ports:
        controller = port.pfc
        if controller is not None:
            pauses = controller.pauses_sent
            break
    return {
        "protocol": protocol,
        "completed": len(fcts),
        "fct_ms_p50": percentile(fcts, 50) if fcts else None,
        "fct_ms_max": max(fcts) if fcts else None,
        "data_drops": topo.net.total_data_drops(),
        "pfc_pauses": pauses,
        "max_queue_kb": topo.net.max_data_queue_bytes() / 1e3,
    }


def run(protocols: Sequence[str] = ("expresspass", "dcqcn", "timely"),
        fan_in: int = 8, response_kb: int = 64, rate_bps: int = 10 * GBPS,
        seed: int = 1) -> ExperimentResult:
    rows = [run_point(p, fan_in, response_kb, rate_bps, seed)
            for p in protocols]
    return ExperimentResult(
        name="ExpressPass vs RDMA congestion controls under incast",
        columns=["protocol", "completed", "fct_ms_p50", "fct_ms_max",
                 "data_drops", "pfc_pauses", "max_queue_kb"],
        rows=rows,
    )
