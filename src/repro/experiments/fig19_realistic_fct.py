"""Fig 19: average / 99th-percentile FCT per size bucket, five protocols.

The paper's headline workload result: ExpressPass wins on S and M flows
(1.3–5.1× faster average than DCTCP, more at p99) by avoiding queueing and
ramping instantly; DCTCP/RCP win on L/XL flows (ExpressPass pays its credit
reservation and wasted credits); DX and HULL sit between.

Like Fig 15, this figure compiles from a declarative scenario spec
(:func:`scenario_dict`, mirrored by ``scenarios/fig19_realistic_fct.yaml``)
through :mod:`repro.scenarios`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core import ExpressPassParams
from repro.core.params import REALISTIC_WORKLOAD_PARAMS
from repro.experiments.realistic import run_realistic
from repro.experiments.runner import ExperimentResult

COLUMNS = ["protocol", "bucket", "flows", "avg_fct_ms", "p99_fct_ms"]


def _bucket_rows(protocol: str, buckets: dict, completed: int) -> list:
    """The figure's row shape: one row per size bucket plus an (all) row."""
    rows = [{
        "protocol": protocol,
        "bucket": bucket,
        "flows": stats["flows"],
        "avg_fct_ms": stats["avg_fct_ms"],
        "p99_fct_ms": stats["p99_fct_ms"],
    } for bucket, stats in sorted(buckets.items())]
    rows.append({
        "protocol": protocol,
        "bucket": "(all)",
        "flows": completed,
        "avg_fct_ms": None,
        "p99_fct_ms": None,
    })
    return rows


def scenario_dict(
    protocols: Sequence[str] = ("expresspass", "rcp", "dctcp", "dx", "hull"),
    workload: str = "web_search",
    load: float = 0.6,
    n_flows: int = 1200,
    rate_bps: int = 10_000_000_000,
    core_rate_bps: Optional[int] = None,
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = 10**12,
    seed: int = 1,
) -> dict:
    """This figure as a scenario spec (one cell per protocol)."""
    from repro.scenarios.schema import SCHEMA

    topo: dict = {"kind": "clos", "rate_bps": rate_bps}
    if core_rate_bps is not None:
        topo["params"] = {"core_rate_bps": core_rate_bps}
    return {
        "schema": SCHEMA,
        "name": "fig19",
        "description": f"Fig 19 FCT per size bucket ({workload}, "
                       f"load {load})",
        "topology": topo,
        "workload": {"kind": "poisson", "n_flows": n_flows,
                     "distribution": workload, "load": load,
                     "size_cap_bytes": size_cap_bytes},
        "transport": {"ep_profile": "realistic"},
        "timing": {"drain_ps": drain_ps},
        "seeds": [seed],
        "sweep": {"transport.protocol": list(protocols)},
    }


def run(
    protocols: Sequence[str] = ("expresspass", "rcp", "dctcp", "dx", "hull"),
    workload: str = "web_search",
    load: float = 0.6,
    n_flows: int = 1200,
    ep_params: Optional[ExpressPassParams] = REALISTIC_WORKLOAD_PARAMS,
    **kwargs,
) -> ExperimentResult:
    """Spec-compiled path; sweeps protocols through the runtime.

    Only the named parameter profiles are expressible as spec data; a
    custom ``ep_params`` object runs :func:`run_realistic` — the cell the
    spec path wraps — directly.  (Non-ExpressPass harnesses ignore
    ``ep_params`` entirely, so it is applied uniformly.)
    """
    name = f"Fig 19 FCT per size bucket ({workload}, load {load})"
    if ep_params not in (None, REALISTIC_WORKLOAD_PARAMS):
        rows = []
        for protocol in protocols:
            result = run_realistic(protocol, workload, load, n_flows,
                                   ep_params=ep_params, **kwargs)
            rows.extend(_bucket_rows(protocol, result.bucket_stats(),
                                     result.completed))
        return ExperimentResult(name=name, columns=COLUMNS, rows=rows)
    from repro.scenarios import Scenario, run_matrix

    spec = scenario_dict(protocols, workload, load, n_flows, **kwargs)
    if ep_params is None:
        spec["transport"]["ep_profile"] = "default"
    outcome = run_matrix(Scenario.from_dict(spec, source="fig19"))
    rows = []
    for value in outcome.values():
        rows.extend(_bucket_rows(value["protocol"], value["buckets"],
                                 value["completed"]))
    return ExperimentResult(name=name, columns=COLUMNS, rows=rows)
