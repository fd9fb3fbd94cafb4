"""Fig 18: sensitivity of 99th-percentile FCT to α and w_init.

Sweeping (α, w_init) from (1/2, 1/2) down to (1/32, 1/32) trades short-flow
FCT (worse at lower α: slower start) against large-flow FCT (better: fewer
wasted credits stealing bandwidth).  The paper picks (1/16, 1/16) as the
sweet spot for realistic workloads.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core import ExpressPassParams
from repro.experiments.realistic import run_realistic
from repro.experiments.runner import ExperimentResult, run_sweep
from repro.sim.units import GBPS, SEC

#: (α, w_init) pairs along the paper's x-axis.
DEFAULT_SWEEP: Tuple[Tuple[float, float], ...] = (
    (1 / 2, 1 / 2),
    (1 / 16, 1 / 2),
    (1 / 16, 1 / 16),
    (1 / 32, 1 / 16),
    (1 / 32, 1 / 32),
)


def run_point(alpha: float, w_init: float, workload: str, load: float,
              n_flows: int, **kwargs) -> dict:
    """One (α, w_init) cell, reduced to its table row.

    The reduction happens *here* (inside the sweep task) rather than in
    ``run`` because a :class:`RealisticRun` carries live flow/simulator
    objects — only the extracted row is picklable and cacheable.
    """
    params = ExpressPassParams(initial_rate_fraction=alpha, w_init=w_init)
    result = run_realistic("expresspass", workload, load, n_flows,
                           ep_params=params, **kwargs)
    row = {"alpha": f"1/{round(1 / alpha)}", "w_init": f"1/{round(1 / w_init)}"}
    for bucket in ("S", "L"):
        stats = result.fct_by_bucket.get(bucket)
        row[f"p99_fct_{bucket}_ms"] = stats.p99_s * 1e3 if stats else None
    row["credit_waste"] = result.credit_waste_ratio
    return row


def run(
    sweep: Sequence[Tuple[float, float]] = DEFAULT_SWEEP,
    workload: str = "cache_follower",
    load: float = 0.6,
    n_flows: int = 1000,
    backend: str = "packet",
    rate_bps: int = 10 * GBPS, core_rate_bps: Optional[int] = None,
    size_cap_bytes: Optional[int] = 20_000_000, drain_ps: int = SEC,
    seed: int = 1,
) -> ExperimentResult:
    """``backend="fluid"`` scans the (α, w_init) grid with the flow-level
    fluid model — the short-flow-vs-elephant trade-off trend without a
    packet-level Clos run per cell."""
    fluid = backend == "fluid"
    common = {"workload": workload, "load": load, "n_flows": n_flows,
              "rate_bps": rate_bps, "size_cap_bytes": size_cap_bytes,
              "seed": seed}
    if fluid:
        from repro.sim.fluid import fluid_fct_point as cell
    else:  # the fluid model has one link speed and no drain
        cell = run_point
        common.update(core_rate_bps=core_rate_bps, drain_ps=drain_ps)
    rows = run_sweep(
        cell,
        [{"alpha": alpha, "w_init": w_init} for alpha, w_init in sweep],
        common=common,
        name="fig18",
        label=lambda pt: f"a=1/{round(1 / pt['alpha'])}"
                         f",w=1/{round(1 / pt['w_init'])}",
    )
    return ExperimentResult(
        name=f"Fig 18 (α, w_init) sensitivity — p99 FCT ({workload}, load {load})"
             + (" (fluid trend mode)" if fluid else ""),
        columns=["alpha", "w_init", "p99_fct_S_ms", "p99_fct_L_ms", "credit_waste"],
        rows=rows,
    )
