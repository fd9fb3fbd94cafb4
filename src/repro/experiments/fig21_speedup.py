"""Fig 21: average-FCT speed-up from upgrading 10 G links to 40 G.

Per size bucket and protocol: larger flows gain the most from bandwidth
(small-flow FCT is RTT-bound).  ExpressPass posts the largest gains for
most buckets (fast convergence exploits the new capacity immediately);
RCP leads for the Web Server's large flows (aggressive start, no credit
waste); DX/HULL gain least (least aggressive).

Each speed-up divides two cells of the Fig 19 Clos/Poisson spec, swept
over protocol × link speed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.fig19_realistic_fct import PROTOCOLS, run_cells
from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, SEC

_SLOW, _FAST = 10 * GBPS, 40 * GBPS


def run(
    protocols: Sequence[str] = PROTOCOLS,
    workload: str = "web_search",
    load: float = 0.6,
    n_flows: int = 800,
    ep_profile: str = "realistic",
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = SEC,
    seed: int = 1,
) -> ExperimentResult:
    cells = run_cells(
        name="fig21", protocols=protocols, workload=workload, load=load,
        n_flows=n_flows, ep_profile=ep_profile,
        size_cap_bytes=size_cap_bytes, drain_ps=drain_ps, seed=seed,
        sweep={"transport.protocol": protocols,
               "topology.rate_bps": (_SLOW, _FAST)})
    buckets = {(axes["transport.protocol"], axes["topology.rate_bps"]):
               value["buckets"] for axes, value in cells}
    rows = []
    for protocol in protocols:
        slow = buckets.get((protocol, _SLOW), {})
        fast = buckets.get((protocol, _FAST), {})
        for bucket in ("S", "M", "L", "XL"):
            a, b = slow.get(bucket), fast.get(bucket)
            if a is None or b is None or b["avg_fct_ms"] == 0:
                continue
            rows.append({
                "protocol": protocol,
                "bucket": bucket,
                "speedup_avg_fct": a["avg_fct_ms"] / b["avg_fct_ms"],
            })
    return ExperimentResult(
        name=f"Fig 21 avg-FCT speed-up of 40G over 10G ({workload}, load {load})",
        columns=["protocol", "bucket", "speedup_avg_fct"],
        rows=rows,
    )
