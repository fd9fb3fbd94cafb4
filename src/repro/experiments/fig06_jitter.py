"""Fig 6(a): credit pacing jitter vs fairness of credit drops.

Concurrent naive-mode flows (credits at maximum rate) share one bottleneck;
Jain's index of delivered data is computed over 1 ms intervals.  Perfect
pacing with deterministic drop ordering is grossly unfair; jitter — from the
pacer and from randomized credit sizes — breaks the synchronization.

``randomize_credit_size`` can be disabled to isolate the two mechanisms
(the paper's §3.1 explains why both exist: end-host jitter alone cannot fix
synchronized drops *across* switches).
"""

from __future__ import annotations

from typing import Sequence

from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, get_harness
from repro.metrics import jain_index
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, dumbbell


def run_point(
    jitter: float,
    n_flows: int,
    rate_bps: int = 10 * GBPS,
    randomize_credit_size: bool = True,
    warmup_ps: int = 2 * MS,
    windows: int = 5,
    window_ps: int = 1 * MS,
    seed: int = 1,
) -> dict:
    sim = Simulator(seed=seed)
    params = ExpressPassParams(naive=True, jitter=jitter,
                               randomize_credit_size=randomize_credit_size,
                               rtt_hint_ps=40 * US)
    harness = get_harness("expresspass-naive", rate_bps, 40 * US, params)
    spec = LinkSpec(rate_bps=rate_bps, prop_delay_ps=4 * US)
    topo = dumbbell(sim, n_pairs=n_flows, bottleneck=spec)
    flows = [harness.flow(s, r, None) for s, r in zip(topo.senders, topo.receivers)]

    sim.run(until=warmup_ps)
    indices = []
    last = {f: f.bytes_delivered for f in flows}
    for w in range(windows):
        sim.run(until=warmup_ps + (w + 1) * window_ps)
        deltas = [f.bytes_delivered - last[f] for f in flows]
        last = {f: f.bytes_delivered for f in flows}
        indices.append(jain_index(deltas))
    return {
        "jitter": jitter,
        "flows": n_flows,
        "randomized_sizes": randomize_credit_size,
        "fairness": sum(indices) / len(indices),
    }


def run(
    jitters: Sequence[float] = (0.0, 0.01, 0.02, 0.04, 0.08),
    flow_counts: Sequence[int] = (16, 64, 256),
    rate_bps: int = 10 * GBPS, randomize_credit_size: bool = True,
    warmup_ps: int = 2 * MS, windows: int = 5, window_ps: int = 1 * MS,
    seed: int = 1,
) -> ExperimentResult:
    rows = [
        run_point(j, n, rate_bps, randomize_credit_size, warmup_ps,
                  windows, window_ps, seed)
        for j in jitters
        for n in flow_counts
    ]
    return ExperimentResult(
        name="Fig 6a jitter vs credit-drop fairness (naive mode)",
        columns=["jitter", "flows", "randomized_sizes", "fairness"],
        rows=rows,
    )
