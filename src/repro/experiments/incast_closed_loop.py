"""Closed-loop partition/aggregate incast (the literal §2 / Fig 1 workload).

The paper's Fig 1 traffic is not open-loop: "a single master server
continuously generates a 200 B request to multiple workers using persistent
connections, and each worker responds with 1 000 B of data for each
request".  This experiment reproduces that loop with the
:class:`~repro.apps.rpc.PartitionAggregate` application and reports the
master-downlink queue and per-round (wave) latency across fan-outs.

The open-loop variant (persistent senders) lives in
:mod:`repro.experiments.fig01_queue_buildup`; the two bracket the paper's
methodology.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps import PartitionAggregate
from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics.fct import percentile
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, SEC, US
from repro.topology import LinkSpec, single_switch


def run_point(
    protocol: str,
    fan_in: int,
    n_hosts: int = 16,
    rounds: int = 50,
    request_bytes: int = 200,
    response_bytes: int = 1000,
    rate_bps: int = 10 * GBPS,
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
    # Workers wrap onto hosts when fan_in exceeds them (§2 footnote 2).
    workers = [topo.hosts[1 + i % (n_hosts - 1)] for i in range(fan_in)]
    app = PartitionAggregate(sim, harness, master, workers,
                             request_bytes=request_bytes,
                             response_bytes=response_bytes,
                             rounds=rounds)
    sim.run(until=30 * SEC)

    downlink = topo.net.port_between(topo.switch, master)
    waves_ms = [t / 1e9 for t in app.round_latencies_ps]
    return {
        "protocol": protocol,
        "fan_in": fan_in,
        "rounds_done": app.completed_rounds,
        "wave_ms_p50": percentile(waves_ms, 50) if waves_ms else None,
        "wave_ms_p99": percentile(waves_ms, 99) if waves_ms else None,
        "downlink_queue_max_pkts": downlink.data_queue.stats.max_bytes / 1538,
        "data_drops": topo.net.total_data_drops(),
    }


def run(
    protocols: Sequence[str] = ("expresspass", "dctcp"),
    fan_ins: Sequence[int] = (8, 32, 64),
    n_hosts: int = 16, rounds: int = 50, request_bytes: int = 200,
    response_bytes: int = 1000, rate_bps: int = 10 * GBPS, seed: int = 1,
    ep_params: Optional[ExpressPassParams] = None,
) -> ExperimentResult:
    rows = [run_point(p, n, n_hosts, rounds, request_bytes, response_bytes,
                      rate_bps, seed, ep_params)
            for p in protocols for n in fan_ins]
    return ExperimentResult(
        name="Closed-loop partition/aggregate incast (§2 workload)",
        columns=["protocol", "fan_in", "rounds_done", "wave_ms_p50",
                 "wave_ms_p99", "downlink_queue_max_pkts", "data_drops"],
        rows=rows,
    )
