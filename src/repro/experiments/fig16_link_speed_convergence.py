"""Fig 16: convergence time when a second flow joins, at 10 G and 100 G.

One flow saturates the bottleneck; a second starts at t0.  We report how
many RTTs until both flows sustain the fair share (±20 %).  Paper findings:
ExpressPass converges in a few RTTs at *both* speeds (the gap from α=1/2 to
α=1/16 roughly doubles it); DCTCP needs hundreds of RTTs at 10 G and
thousands at 100 G (convergence ∝ BDP); RCP converges in a few RTTs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness, run_sweep
from repro.metrics.timeseries import FlowThroughputSampler, convergence_time_ps
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, dumbbell


def run_point(
    protocol: str,
    rate_bps: int,
    base_rtt_ps: int = 100 * US,
    seed: int = 1,
    max_rtts: int = 4000,
    ep_params: Optional[ExpressPassParams] = None,
    tolerance: float = 0.25,
) -> dict:
    """Convergence time, in RTTs, of a 2nd flow joining a saturated link."""
    sim = Simulator(seed=seed)
    harness = get_harness(protocol, rate_bps, base_rtt_ps, ep_params)
    # Dumbbell path: 3 links each way; split the base RTT across them.
    prop = base_rtt_ps // 6
    spec = harness.adapt_link(LinkSpec(rate_bps=rate_bps, prop_delay_ps=prop))
    topo = dumbbell(sim, n_pairs=2, bottleneck=spec)
    harness.install(sim, topo.net)

    warmup = 40 * base_rtt_ps
    flow0 = harness.flow(topo.senders[0], topo.receivers[0], None, start_ps=0)
    flow1 = harness.flow(topo.senders[1], topo.receivers[1], None, start_ps=warmup)

    sample = max(base_rtt_ps, 10 * US)
    sampler = FlowThroughputSampler(sim, [flow0, flow1], sample)

    # Fair share: half the achievable data goodput of the bottleneck.
    achievable = rate_bps * 0.9 if protocol.startswith("expresspass") else rate_bps * 0.95
    fair = achievable / 2

    def detect():
        return convergence_time_ps(
            sampler.times_ps,
            [sampler.series[flow0], sampler.series[flow1]],
            fair,
            tolerance=tolerance,
            sustain_intervals=3,
            start_ps=warmup,
        )

    # Run in chunks and stop as soon as convergence is detected + a margin,
    # so fast protocols don't pay the slow protocols' horizon.
    horizon = warmup + max_rtts * base_rtt_ps
    converged_at = None
    t = warmup
    while t < horizon:
        t = min(t + 100 * base_rtt_ps, horizon)
        sim.run(until=t)
        converged_at = detect()
        if converged_at is not None:
            break
    rtts = (converged_at - warmup) / base_rtt_ps if converged_at is not None else None
    return {
        "protocol": protocol,
        "rate_gbps": rate_bps / 1e9,
        "convergence_rtts": rtts,
        "converged": converged_at is not None,
    }


def run_point_labeled(label: str, **kwargs) -> dict:
    """Sweep task: one convergence cell with a display label (e.g. α variant)."""
    row = run_point(**kwargs)
    row["protocol"] = label
    return row


def run_point_labeled_fluid(label: str, **kwargs) -> dict:
    """Fluid trend-mode sweep task: same row shape, no packet events."""
    from repro.sim.fluid import fluid_join_convergence

    kwargs.pop("seed", None)   # the fluid join is deterministic
    row = fluid_join_convergence(**kwargs)
    row["protocol"] = label
    return row


def run(
    protocols: Sequence[str] = ("expresspass", "dctcp", "rcp"),
    rates_gbps: Sequence[int] = (10, 100),
    alpha_variants: Sequence[float] = (0.5, 1 / 16),
    backend: str = "packet",
    base_rtt_ps: int = 100 * US, max_rtts: int = 4000,
    tolerance: float = 0.25, seed: int = 1,
) -> ExperimentResult:
    """``backend="fluid"`` replays the join in the rate-evolution model:
    the convergence-class trend (ExpressPass/RCP a few RTTs, DCTCP far
    more; α halving roughly doubling it) at a fraction of the cost."""
    fluid = backend == "fluid"
    points = []
    for rate in rates_gbps:
        for protocol in protocols:
            if protocol == "expresspass":
                for alpha in alpha_variants:
                    pt = {"label": f"expresspass(a={alpha:g})",
                          "protocol": protocol,
                          "rate_bps": rate * GBPS}
                    if fluid:
                        pt["alpha"] = alpha
                    else:
                        pt["ep_params"] = \
                            ExpressPassParams().with_alpha(alpha, alpha)
                    points.append(pt)
            else:
                points.append({"label": protocol, "protocol": protocol,
                               "rate_bps": rate * GBPS})
    rows = run_sweep(
        run_point_labeled_fluid if fluid else run_point_labeled,
        points,
        common={"base_rtt_ps": base_rtt_ps, "max_rtts": max_rtts,
                "tolerance": tolerance, "seed": seed},
        name="fig16",
        label=lambda pt: f"{pt['label']}@{pt['rate_bps'] // 10**9}G",
    )
    return ExperimentResult(
        name="Fig 16 convergence time vs link speed"
             + (" (fluid trend mode)" if fluid else ""),
        columns=["protocol", "rate_gbps", "convergence_rtts", "converged"],
        rows=rows,
    )
