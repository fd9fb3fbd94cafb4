"""Fig 8: the initial-rate trade-off (§3.3).

(a) Convergence time of a new flow joining one existing flow, as the
    initial rate α·max_rate drops from max_rate to max_rate/32.
(b) Credits wasted by a single-packet flow in an idle network: with a high
    initial rate the receiver showers the sender with credits during the
    final RTT (plus the CREDIT_STOP round trip), nearly all wasted.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import ExpressPassFlow, ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics.timeseries import FlowThroughputSampler, convergence_time_ps
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, dumbbell


def convergence_point(
    alpha: float,
    rate_bps: int = 10 * GBPS,
    base_rtt_ps: int = 100 * US,
    seed: int = 1,
    max_rtts: int = 500,
) -> dict:
    params = ExpressPassParams(rtt_hint_ps=base_rtt_ps).with_alpha(alpha)
    sim = Simulator(seed=seed)
    harness = get_harness("expresspass", rate_bps, base_rtt_ps, params)
    prop = base_rtt_ps // 6
    spec = LinkSpec(rate_bps=rate_bps, prop_delay_ps=prop)
    topo = dumbbell(sim, n_pairs=2, bottleneck=spec)
    warmup = 40 * base_rtt_ps
    flow0 = harness.flow(topo.senders[0], topo.receivers[0], None)
    flow1 = harness.flow(topo.senders[1], topo.receivers[1], None, start_ps=warmup)
    sampler = FlowThroughputSampler(sim, [flow0, flow1], base_rtt_ps)
    sim.run(until=warmup + max_rtts * base_rtt_ps)
    converged_at = convergence_time_ps(
        sampler.times_ps, [sampler.series[flow0], sampler.series[flow1]],
        rate_bps * 0.9 / 2, tolerance=0.25, sustain_intervals=3, start_ps=warmup,
    )
    return {
        "alpha": alpha,
        "convergence_rtts": ((converged_at - warmup) / base_rtt_ps
                             if converged_at is not None else None),
    }


def waste_point(
    alpha: float,
    rate_bps: int = 10 * GBPS,
    base_rtt_ps: int = 100 * US,
    seed: int = 1,
) -> dict:
    """Credits wasted by a single-packet (1 B payload) flow in an idle net."""
    params = ExpressPassParams(rtt_hint_ps=base_rtt_ps).with_alpha(alpha)
    sim = Simulator(seed=seed)
    prop = base_rtt_ps // 6
    topo = dumbbell(sim, n_pairs=1,
                    bottleneck=LinkSpec(rate_bps=rate_bps, prop_delay_ps=prop))
    flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 1, params=params)
    sim.run(until=100 * base_rtt_ps)
    return {
        "alpha": alpha,
        "wasted_credits": flow.credits_wasted,
        "credits_sent": flow.credits_sent,
    }


def run(alphas: Sequence[float] = (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32),
        max_rtts: int = 500, rate_bps: int = 10 * GBPS,
        base_rtt_ps: int = 100 * US, seed: int = 1) -> ExperimentResult:
    rows = []
    for alpha in alphas:
        row = convergence_point(alpha, rate_bps, base_rtt_ps, seed, max_rtts)
        row.update(waste_point(alpha, rate_bps, base_rtt_ps, seed))
        rows.append(row)
    return ExperimentResult(
        name="Fig 8 initial-rate trade-off: convergence vs credit waste",
        columns=["alpha", "convergence_rtts", "wasted_credits", "credits_sent"],
        rows=rows,
    )
