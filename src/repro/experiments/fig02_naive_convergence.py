"""Fig 2: convergence of a naive credit scheme vs TCP CUBIC vs DCTCP.

Two flows on one bottleneck; the second joins once the first is saturated.
The naive credit-based scheme (receivers blast credits at the maximum rate,
switch rate-limiting does all the work) converges to the fair share within
about one RTT; CUBIC and DCTCP take tens of milliseconds.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics.timeseries import FlowThroughputSampler, convergence_time_ps
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, dumbbell


def run_point(
    protocol: str,
    rate_bps: int = 10 * GBPS,
    base_rtt_ps: int = 100 * US,
    max_wait_ps: int = 500 * MS,
    seed: int = 1,
) -> dict:
    sim = Simulator(seed=seed)
    harness = get_harness(protocol, rate_bps, base_rtt_ps)
    prop = base_rtt_ps // 6
    spec = harness.adapt_link(LinkSpec(rate_bps=rate_bps, prop_delay_ps=prop))
    topo = dumbbell(sim, n_pairs=2, bottleneck=spec)
    harness.install(sim, topo.net)

    warmup = 50 * base_rtt_ps
    flow0 = harness.flow(topo.senders[0], topo.receivers[0], None, start_ps=0)
    flow1 = harness.flow(topo.senders[1], topo.receivers[1], None, start_ps=warmup)
    sampler = FlowThroughputSampler(sim, [flow0, flow1], base_rtt_ps)
    sim.run(until=warmup + max_wait_ps)

    achievable = rate_bps * 0.9 if protocol.startswith("expresspass") else rate_bps * 0.95
    # Per-RTT goodput windows hold only ~40 credit slots per flow, so the
    # tolerance must sit above that quantization noise (~±16 %).
    converged_at = convergence_time_ps(
        sampler.times_ps,
        [sampler.series[flow0], sampler.series[flow1]],
        achievable / 2,
        tolerance=0.35,
        sustain_intervals=2,
        start_ps=warmup,
    )
    time_us = (converged_at - warmup) / US if converged_at is not None else None
    return {
        "protocol": protocol,
        "convergence_us": time_us,
        "convergence_rtts": (time_us * US / base_rtt_ps
                             if time_us is not None else None),
        "converged": converged_at is not None,
    }


def run(
    protocols: Sequence[str] = ("expresspass-naive", "cubic", "dctcp"),
    rate_bps: int = 10 * GBPS, base_rtt_ps: int = 100 * US,
    max_wait_ps: int = 500 * MS, seed: int = 1,
) -> ExperimentResult:
    rows = [run_point(p, rate_bps, base_rtt_ps, max_wait_ps, seed)
            for p in protocols]
    return ExperimentResult(
        name="Fig 2 convergence: naive credit vs TCP CUBIC vs DCTCP",
        columns=["protocol", "convergence_us", "convergence_rtts", "converged"],
        rows=rows,
    )
