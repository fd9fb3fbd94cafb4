"""Fig 13: convergence behaviour of five staggered flows (testbed analog).

Five flows arrive one every ``stagger`` and depart in reverse order; the
figure shows per-flow throughput and the bottleneck queue over time.
ExpressPass should show stable plateaus near the fair share with a
near-empty queue; DCTCP shows larger queue and noisier shares.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentResult, get_harness
from repro.obs import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, dumbbell


def run(
    protocol: str = "expresspass",
    n_flows: int = 5,
    stagger_ps: int = 50 * MS,
    rate_bps: int = 10 * GBPS,
    seed: int = 1,
    sample_ps: int = 10 * MS,
) -> ExperimentResult:
    """Each flow i runs [i*stagger, (2*n - 1 - i)*stagger)."""
    sim = Simulator(seed=seed)
    base_rtt = 30 * US
    harness = get_harness(protocol, rate_bps, base_rtt)
    spec = harness.adapt_link(LinkSpec(rate_bps=rate_bps, prop_delay_ps=4 * US))
    topo = dumbbell(sim, n_pairs=n_flows, bottleneck=spec)
    harness.install(sim, topo.net)

    total_ps = 2 * n_flows * stagger_ps
    flows = []
    for i, (s, r) in enumerate(zip(topo.senders, topo.receivers)):
        flow = harness.flow(s, r, None, start_ps=i * stagger_ps)
        stop_at = (2 * n_flows - 1 - i) * stagger_ps
        sim.schedule_at(stop_at, flow.stop)
        flows.append(flow)

    # Time series come from the shared observability plane: the samplers are
    # registry-built, so the same values land in registry series (and hence
    # the --obs-jsonl export) as in the rows below.
    reg = MetricsRegistry.attach(sim)
    sampler = reg.sample_throughput(flows, sample_ps)
    qseries = reg.sample_queue(topo.bottleneck_fwd, sample_ps,
                               name="queue.bottleneck_bytes").series
    sim.run(until=total_ps)
    reg.finalize()

    tput = [reg.series[f"throughput.f{flow.fid}_bps"] for flow in flows]
    rows = []
    for i, t in enumerate(sampler.times_ps):
        row = {"time_ms": t / MS}
        for j, flow in enumerate(flows):
            row[f"flow{j}_gbps"] = tput[j].values[i] / 1e9
        if i < len(qseries.values):
            row["queue_kb"] = qseries.values[i] / 1e3
        rows.append(row)
    columns = ["time_ms"] + [f"flow{j}_gbps" for j in range(n_flows)] + ["queue_kb"]
    return ExperimentResult(
        name=f"Fig 13 convergence behaviour ({protocol})",
        columns=columns,
        rows=rows,
        meta={
            "protocol": protocol,
            "max_queue_bytes": topo.net.max_data_queue_bytes(),
            "data_drops": topo.net.total_data_drops(),
        },
    )
