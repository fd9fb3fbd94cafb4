"""Fig 1: bottleneck data-queue length vs number of concurrent flows.

A partition/aggregate-style fan-in: N workers continuously stream responses
to one master.  Even the *ideal* rate control (every flow perfectly paced at
its exact fair share) builds a queue that grows with N, because packets of
independently paced flows collide at the bottleneck; DCTCP builds far more;
the credit-based scheme bounds the queue regardless of fan-in because the
credit arrival order *schedules* data arrivals.

The paper runs fan-outs 32..2048 on an 8-ary fat tree; the default here is a
single ToR with fan-in 8..128 (workers wrap onto hosts exactly as in the
paper when N exceeds the host count).  Queue statistics are taken on the
master's downlink — the incast bottleneck.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics.fct import percentile
from repro.metrics.timeseries import QueueSampler
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, single_switch


def run_point(
    protocol: str,
    fan_in: int,
    n_hosts: int = 16,
    rate_bps: int = 10 * GBPS,
    duration_ps: int = 20 * MS,
    seed: int = 1,
    ep_params: Optional[ExpressPassParams] = None,
) -> dict:
    sim = Simulator(seed=seed)
    base_rtt = 20 * US
    harness = get_harness(protocol, rate_bps, base_rtt, ep_params)
    spec = harness.adapt_link(LinkSpec(rate_bps=rate_bps, prop_delay_ps=2 * US))
    topo = single_switch(sim, n_hosts, link=spec)
    harness.install(sim, topo.net)

    master = topo.hosts[0]
    rng = sim.rng("fig1-start")
    flows = []
    for i in range(fan_in):
        worker = topo.hosts[1 + i % (n_hosts - 1)]
        # Stagger starts within one RTT: the paper's workers respond to a
        # request wave, which arrives spread over the fan-out.
        start = rng.randint(0, base_rtt)
        flows.append(harness.flow(worker, master, None, start_ps=start))

    bottleneck = topo.net.port_between(topo.switch, master)
    sampler = QueueSampler(sim, bottleneck, interval_ps=50 * US)
    sim.run(until=duration_ps)

    pkts = [b / 1538 for _, b in sampler.samples]
    return {
        "protocol": protocol,
        "fan_in": fan_in,
        "queue_pkts_p50": percentile(pkts, 50),
        "queue_pkts_p99": percentile(pkts, 99),
        "queue_pkts_max": bottleneck.data_queue.stats.max_bytes / 1538,
        "data_drops": topo.net.total_data_drops(),
    }


def run(
    protocols: Sequence[str] = ("ideal", "dctcp", "expresspass"),
    fan_ins: Sequence[int] = (8, 16, 32, 64, 128),
    n_hosts: int = 16, rate_bps: int = 10 * GBPS, duration_ps: int = 20 * MS,
    seed: int = 1, ep_params: Optional[ExpressPassParams] = None,
) -> ExperimentResult:
    rows = [
        run_point(protocol, n, n_hosts, rate_bps, duration_ps, seed,
                  ep_params)
        for protocol in protocols
        for n in fan_ins
    ]
    return ExperimentResult(
        name="Fig 1 data-queue length vs concurrent flows",
        columns=["protocol", "fan_in", "queue_pkts_p50", "queue_pkts_p99",
                 "queue_pkts_max", "data_drops"],
        rows=rows,
    )
