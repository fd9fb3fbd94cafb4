"""Table 3: average / maximum queue occupancy across workloads and loads.

Paper shape: ExpressPass's average queue is sub-KB and its *maximum* is a
property of the topology — flat in load — while every reactive scheme's
queue grows with load; RCP pegs the queue capacity; DCTCP sits near its
marking threshold; DX and HULL stay low but load-sensitive.

The averages reported are for the busiest port (time-weighted).  Each row
is one cell of the Fig 19 Clos/Poisson spec, swept over workload × load ×
protocol.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.fig19_realistic_fct import PROTOCOLS, run_cells
from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, SEC

COLUMNS = ["workload", "load", "protocol", "avg_queue_kb", "max_queue_kb",
           "data_drops"]


def run(
    protocols: Sequence[str] = PROTOCOLS,
    workloads: Sequence[str] = ("web_search",),
    loads: Sequence[float] = (0.2, 0.4, 0.6),
    n_flows: int = 800,
    ep_profile: str = "realistic",
    rate_bps: int = 10 * GBPS,
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = SEC,
    seed: int = 1,
) -> ExperimentResult:
    cells = run_cells(
        name="table3", protocols=protocols, n_flows=n_flows,
        ep_profile=ep_profile, rate_bps=rate_bps,
        size_cap_bytes=size_cap_bytes, drain_ps=drain_ps, seed=seed,
        sweep={"workload.distribution": workloads, "workload.load": loads,
               "transport.protocol": protocols})
    return ExperimentResult(
        name="Table 3 average/maximum queue occupancy",
        columns=COLUMNS,
        rows=[{key: value[key] for key in COLUMNS} for _axes, value in cells],
    )
