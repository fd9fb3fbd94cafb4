"""Fig 20: credit-waste ratio by workload, link speed, and α.

Credit waste grows as the average flow size shrinks (Web Server worst) and
as the BDP grows (40 G worse than 10 G); dropping α to 1/16 roughly halves
it.  The ratio is measured at senders: wasted / (wasted + used).

The paper's two settings, α = w_init ∈ {1/2, 1/16}, are the ``default`` and
``realistic`` ExpressPass profiles; each row is one ExpressPass cell of the
Fig 19 Clos/Poisson spec, swept over workload × link speed × profile.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.fig19_realistic_fct import run_cells
from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, SEC


def run(
    workloads: Sequence[str] = ("data_mining", "web_search",
                                "cache_follower", "web_server"),
    speeds_gbps: Sequence[int] = (10, 40),
    profiles: Sequence[str] = ("default", "realistic"),
    load: float = 0.6,
    n_flows: int = 800,
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = SEC,
    seed: int = 1,
) -> ExperimentResult:
    from repro.core.params import ExpressPassParams
    from repro.scenarios.cells import resolve_ep_profile

    gbps_of = {gbps * GBPS: gbps for gbps in speeds_gbps}
    cells = run_cells(
        name="fig20", protocols=("expresspass",), load=load, n_flows=n_flows,
        size_cap_bytes=size_cap_bytes, drain_ps=drain_ps, seed=seed,
        sweep={"workload.distribution": workloads,
               "topology.rate_bps": list(gbps_of),
               "transport.ep_profile": profiles})
    rows = []
    for axes, value in cells:
        params = (resolve_ep_profile(axes["transport.ep_profile"])
                  or ExpressPassParams())
        rows.append({
            "workload": value["workload"],
            "rate_gbps": gbps_of[axes["topology.rate_bps"]],
            "alpha": f"1/{round(1 / params.initial_rate_fraction)}",
            "credit_waste": value["credit_waste_ratio"],
        })
    return ExperimentResult(
        name=f"Fig 20 credit-waste ratio (load {load})",
        columns=["workload", "rate_gbps", "alpha", "credit_waste"],
        rows=rows,
    )
