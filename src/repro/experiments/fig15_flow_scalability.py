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

from typing import Optional, Sequence

from repro.core import ExpressPassParams
from repro.experiments.runner import ExperimentResult, run_sweep
from repro.sim.units import GBPS, MS

COLUMNS = ["protocol", "flows", "utilization", "fairness",
           "max_queue_kb", "data_drops"]

_NAME = "Fig 15 flow scalability (utilization / fairness / max queue)"


def run_point(
    protocol: str,
    n_flows: int,
    rate_bps: int = 10 * GBPS,
    warmup_ps: int = 50 * MS,
    measure_ps: int = 50 * MS,
    seed: int = 1,
    ep_params: Optional[ExpressPassParams] = None,
) -> dict:
    """One (protocol, N) cell: run, then measure over the steady window.

    Delegates to the scenario cell runner (whose dumbbell arm is this
    figure's exact construction) and keeps the figure's classic columns.
    """
    from repro.scenarios.cells import run_persistent

    row = run_persistent(protocol=protocol, n_flows=n_flows,
                         topology="dumbbell", rate_bps=rate_bps,
                         warmup_ps=warmup_ps, measure_ps=measure_ps,
                         seed=seed, ep_params=ep_params)
    return {key: row[key] for key in COLUMNS}


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
    backend: str = "packet",
    **kwargs,
) -> ExperimentResult:
    """Spec-compiled path: build the scenario, compile, run, shape rows.

    An explicit ``ep_params`` object cannot be expressed as spec data (specs
    name profiles, not parameter objects), so that case sweeps
    :func:`run_point` — the same cell runner — directly.
    ``backend="fluid"`` runs the same grid on the rate-evolution engine
    (trend mode).
    """
    if kwargs.get("ep_params") is not None:
        if backend != "packet":
            raise ValueError("explicit ep_params require the packet backend")
        rows = run_sweep(
            run_point,
            [{"protocol": protocol, "n_flows": n}
             for protocol in protocols for n in flow_counts],
            common=kwargs,
            name="fig15",
            label=lambda pt: f"{pt['protocol']}/N={pt['n_flows']}",
        )
        return ExperimentResult(name=_NAME, columns=COLUMNS, rows=rows)
    kwargs.pop("ep_params", None)
    kwargs["backend"] = backend
    from repro.scenarios import Scenario, run_matrix

    spec = scenario_dict(protocols, flow_counts, **kwargs)
    outcome = run_matrix(Scenario.from_dict(spec, source="fig15"))
    rows = [{key: value[key] for key in COLUMNS}
            for value in outcome.values()]
    return ExperimentResult(name=_NAME, columns=COLUMNS, rows=rows)
