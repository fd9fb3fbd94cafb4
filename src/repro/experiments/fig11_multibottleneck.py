"""Fig 11: fairness with multiple bottlenecks.

Flows 1..N cross Link 1 then Link 2; Flow 0 enters at Link 2 only.  Ideal
max-min gives every flow 1/(N+1) of Link 2.  The naive credit scheme gives
Flow 0 a disproportionate share (its credits never face the Link-1 limiter);
the feedback loop tracks the max-min share until the sub-credit-per-RTT
regime erodes fairness at large N (§3.4).

Each row is one cell of Fig 10's §3.4 spec on the multi-bottleneck
topology (:func:`repro.experiments.fig10_parking_lot.run_cells`).
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.fig10_parking_lot import MODES, run_cells
from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, MS


def run(
    counts: Sequence[int] = (1, 4, 16, 64),
    rate_bps: int = 10 * GBPS,
    warmup_ps: int = 40 * MS,
    measure_ps: int = 60 * MS,
    seed: int = 1,
) -> ExperimentResult:
    max_data_goodput = rate_bps * (1538 / 1626) * (1500 / 1538)
    rows = []
    for value in run_cells("fig11", "multi_bottleneck", counts, rate_bps,
                           warmup_ps, measure_ps, seed):
        n_cross = value["flows"] - 1
        rows.append({
            "cross_flows": n_cross,
            "mode": MODES[value["protocol"]],
            "flow0_gbps": value["flow0_gbps"],
            "maxmin_ideal_gbps": max_data_goodput / (n_cross + 1) / 1e9,
        })
    return ExperimentResult(
        name="Fig 11 multi-bottleneck fairness (Flow 0 throughput)",
        columns=["cross_flows", "mode", "flow0_gbps", "maxmin_ideal_gbps"],
        rows=rows)
