"""Fig 19: average / 99th-percentile FCT per size bucket, five protocols.

The paper's headline workload result: ExpressPass wins on S and M flows
(1.3–5.1× faster average than DCTCP, more at p99) by avoiding queueing and
ramping instantly; DCTCP/RCP win on L/XL flows (ExpressPass pays its credit
reservation and wasted credits); DX and HULL sit between.

Like Fig 15, this figure compiles from a declarative scenario spec
(:func:`scenario_dict`, mirrored by ``scenarios/fig19_realistic_fct.yaml``)
through :mod:`repro.scenarios`.  That spec is the one §6.3 experiment —
Poisson arrivals of Table 2 sizes on the oversubscribed Clos — and Table 3
and Figs 20–21 run it too, each through :func:`run_cells` with its own
sweep axes and a pivot over the cell values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, SEC

PROTOCOLS = ("expresspass", "rcp", "dctcp", "dx", "hull")

COLUMNS = ["protocol", "bucket", "flows", "avg_fct_ms", "p99_fct_ms"]


def scenario_dict(
    protocols: Sequence[str] = PROTOCOLS,
    workload: str = "web_search",
    load: float = 0.6,
    n_flows: int = 1200,
    rate_bps: int = 10 * GBPS,
    core_rate_bps: Optional[int] = None,
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = SEC,
    seed: int = 1,
    ep_profile: str = "realistic",
    sweep: Optional[Dict[str, Sequence]] = None,
    name: str = "fig19",
) -> dict:
    """This figure as a scenario spec (one cell per protocol).

    The other Clos/Poisson figures pass their own ``name`` and ``sweep``:
    its axes (outermost first) replace the protocol axis, and each swept
    field overrides the scalar argument that sets it.
    """
    from repro.scenarios.schema import SCHEMA

    topo: dict = {"kind": "clos", "rate_bps": rate_bps}
    if core_rate_bps is not None:
        topo["params"] = {"core_rate_bps": core_rate_bps}
    sweep = sweep or {"transport.protocol": protocols}
    return {
        "schema": SCHEMA,
        "name": name,
        "description": f"{name}: Table 2 flow sizes, Poisson arrivals, "
                       f"on the scaled Clos",
        "topology": topo,
        "workload": {"kind": "poisson", "n_flows": n_flows,
                     "distribution": workload, "load": load,
                     "size_cap_bytes": size_cap_bytes},
        "transport": {"protocol": protocols[0], "ep_profile": ep_profile},
        "timing": {"drain_ps": drain_ps},
        "seeds": [seed],
        "sweep": {axis: list(values) for axis, values in sweep.items()},
    }


def run_cells(*args, **kwargs) -> List[Tuple[dict, dict]]:
    """Run ``scenario_dict(*args, **kwargs)`` through the runtime (pooled,
    cached, journaled and audited per cell): each successful cell's swept
    coordinates (dotted path → value, and ``seed``) and its
    :func:`repro.scenarios.cells.run_poisson` row, in cell order."""
    from repro.scenarios import Scenario, run_matrix

    data = scenario_dict(*args, **kwargs)
    outcome = run_matrix(Scenario.from_dict(data, source=data["name"]))
    outcome.values()  # a matrix in which every cell failed raises
    return [(dict(cell.axes), result.value)
            for cell, result in zip(outcome.matrix.cells, outcome.results)
            if result.error is None]


def run(
    protocols: Sequence[str] = PROTOCOLS,
    workload: str = "web_search",
    load: float = 0.6,
    n_flows: int = 1200,
    rate_bps: int = 10 * GBPS,
    core_rate_bps: Optional[int] = None,
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = SEC,
    seed: int = 1,
    ep_profile: str = "realistic",
) -> ExperimentResult:
    """One cell per protocol; one row per size bucket plus an (all) row."""
    rows = []
    for _axes, value in run_cells(protocols, workload, load, n_flows,
                                  rate_bps, core_rate_bps, size_cap_bytes,
                                  drain_ps, seed, ep_profile):
        protocol = value["protocol"]
        rows.extend({"protocol": protocol, "bucket": bucket, **stats}
                    for bucket, stats in sorted(value["buckets"].items()))
        rows.append({"protocol": protocol, "bucket": "(all)",
                     "flows": value["completed"], "avg_fct_ms": None,
                     "p99_fct_ms": None})
    return ExperimentResult(
        name=f"Fig 19 FCT per size bucket ({workload}, load {load})",
        columns=COLUMNS, rows=rows)
