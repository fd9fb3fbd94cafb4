"""Fig 15: utilization / fairness / max queue vs number of concurrent flows.

N long-running flow pairs share one 10 G bottleneck.  The paper's findings:
ExpressPass holds ≈95 % utilization (the credit reservation), near-perfect
fairness, and a max queue of a few KB regardless of N; DCTCP's fairness
collapses past ~64 flows (window floor of 2) with queue growing toward
capacity; RCP under-utilizes and overflows beyond a few hundred flows.

This figure is compiled from a declarative scenario spec
(:func:`scenario_dict`, mirrored by ``scenarios/fig15_flow_scalability.yaml``)
through :mod:`repro.scenarios` — the same pipeline ``repro matrix`` drives.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, MS

COLUMNS = ["protocol", "flows", "utilization", "fairness",
           "max_queue_kb", "data_drops"]

_NAME = "Fig 15 flow scalability (utilization / fairness / max queue)"


def scenario_dict(
    protocols: Sequence[str] = ("expresspass", "dctcp", "rcp"),
    flow_counts: Sequence[int] = (4, 16, 64, 256),
    rate_bps: int = 10 * GBPS,
    warmup_ps: int = 50 * MS,
    measure_ps: int = 50 * MS,
    seed: int = 1,
    backend: str = "packet",
) -> dict:
    """This figure as a scenario spec (protocol outer axis, N inner).

    ``backend="fluid"`` selects the rate-evolution engine — the 10×+
    faster trend mode for scanning wide (protocol, N) grids before paying
    for packet-level confirmation.
    """
    from repro.scenarios.schema import SCHEMA

    return {
        "schema": SCHEMA,
        "name": "fig15",
        "description": "Fig 15 flow scalability on a shared dumbbell",
        "backend": backend,
        "topology": {"kind": "dumbbell", "rate_bps": rate_bps},
        "workload": {"kind": "persistent"},
        "timing": {"warmup_ps": warmup_ps, "measure_ps": measure_ps},
        "seeds": [seed],
        "sweep": {"transport.protocol": list(protocols),
                  "workload.n_flows": list(flow_counts)},
    }


def run(
    protocols: Sequence[str] = ("expresspass", "dctcp", "rcp"),
    flow_counts: Sequence[int] = (4, 16, 64, 256),
    rate_bps: int = 10 * GBPS,
    warmup_ps: int = 50 * MS,
    measure_ps: int = 50 * MS,
    seed: int = 1,
    backend: str = "packet",
) -> ExperimentResult:
    """Spec-compiled path: build the scenario, compile, run, shape rows.

    ``backend="fluid"`` runs the same grid on the rate-evolution engine
    (trend mode).
    """
    from repro.scenarios import Scenario, run_matrix

    spec = scenario_dict(protocols, flow_counts, rate_bps, warmup_ps,
                         measure_ps, seed, backend)
    outcome = run_matrix(Scenario.from_dict(spec, source="fig15"))
    rows = [{key: value[key] for key in COLUMNS}
            for value in outcome.values()]
    return ExperimentResult(name=_NAME, columns=COLUMNS, rows=rows)
