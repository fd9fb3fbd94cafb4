"""Fig 9: credit-queue capacity vs under-utilization (§3.3).

Flows arrive on *different ingress ports* and leave through one egress; a
tiny credit buffer drops credit bursts that arrive simultaneously across
ports, leaving the data direction under-filled.  Eight credits suffice
across flow counts — the paper's chosen default.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, single_switch


def run_point(
    n_flows: int,
    credit_queue_pkts: int,
    rate_bps: int = 10 * GBPS,
    warmup_ps: int = 20 * MS,
    measure_ps: int = 30 * MS,
    seed: int = 1,
) -> dict:
    sim = Simulator(seed=seed)
    base_rtt = 20 * US
    params = ExpressPassParams(rtt_hint_ps=base_rtt)
    harness = get_harness("expresspass", rate_bps, base_rtt, params)
    spec = LinkSpec(rate_bps=rate_bps, prop_delay_ps=2 * US,
                    credit_capacity_pkts=credit_queue_pkts)
    # Flows from distinct hosts (ports) converging on host 0.
    topo = single_switch(sim, n_flows + 1, link=spec)
    sink = topo.hosts[0]
    flows = [harness.flow(h, sink, None) for h in topo.hosts[1:]]

    sim.run(until=warmup_ps)
    base = sum(f.bytes_delivered for f in flows)
    sim.run(until=warmup_ps + measure_ps)
    delivered = sum(f.bytes_delivered for f in flows) - base
    goodput = delivered * 8 / (measure_ps / 1e12)
    # Max achievable goodput: credit-metered data share x payload fraction.
    achievable = rate_bps * (1538 / 1626) * (1500 / 1538)
    return {
        "flows": n_flows,
        "credit_queue": credit_queue_pkts,
        "under_utilization": max(0.0, 1 - goodput / achievable),
    }


def run(
    flow_counts: Sequence[int] = (2, 4, 8, 16, 32),
    queue_sizes: Sequence[int] = (1, 2, 4, 8, 16, 32),
    rate_bps: int = 10 * GBPS, warmup_ps: int = 20 * MS,
    measure_ps: int = 30 * MS, seed: int = 1,
) -> ExperimentResult:
    rows = [
        run_point(n, q, rate_bps, warmup_ps, measure_ps, seed)
        for n in flow_counts
        for q in queue_sizes
    ]
    return ExperimentResult(
        name="Fig 9 credit-queue capacity vs under-utilization",
        columns=["flows", "credit_queue", "under_utilization"],
        rows=rows,
    )
