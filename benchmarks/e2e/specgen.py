"""Workload specs, generated from the benchmark seed.

The program under test only ever sees the spec *files* written here (the
Parsonson et al. discipline, PAPERS.md): a workload is a pure function
``(name, seed) -> scenario spec``, serialised as canonical JSON so the same
seed always yields the same bytes.  JSON, not YAML, so the benchmark does
not depend on the optional PyYAML parser.

The seed enters every spec as the simulation seed(s): it changes which
jitter, arrival times and flow sizes the simulator draws — and therefore
every seed-sensitive result row — but never the *shape* of a workload
(cells, tasks, invocations), so costs are comparable across seeds.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

SCHEMA = "repro.scenarios/v1"

#: The seed whose row digests are pinned under ``reference/``.
DEFAULT_SEED = 1

TRANSPORTS = ["expresspass", "dctcp", "rcp", "dcqcn"]

#: Workload name -> why it is in the benchmark (one line each; the long
#: form is in README.md).  Order is the round-robin order of a round.
WORKLOADS: Dict[str, str] = {
    "packet_sweep": "16 persistent-flow dumbbell cells on the packet engine, "
                    "cold cache: time sits in sim.engine + net + transport",
    "poisson_fct": "4 Poisson web-search cells on the Clos, cold cache: "
                   "same engine layers under flow churn and multi-hop routing",
    "warm_rerun": "10 fresh-interpreter reruns of a fully cached 64-cell "
                  "matrix: engine bypassed, front end and cache reads only",
    "fluid_grid": "768 fluid cells on a 2-worker pool, cold cache: engine "
                  "bypassed, per-task dispatch and cache writes dominate",
}

#: Specs the traced phase's ungated probes run (not workloads).
PROBE_SPECS = ("probe_slice", "probe_fattree")


def _seed_run(seed: int, n: int) -> List[int]:
    return [seed + i for i in range(n)]


def _dumbbell(name: str, description: str, seeds: List[int],
              n_flows: List[int]) -> dict:
    """``sweep_headline``'s shape: transports x flow counts, short windows."""
    return {
        "schema": SCHEMA,
        "name": name,
        "description": description,
        "topology": {"kind": "dumbbell", "rate_bps": 10_000_000_000},
        "workload": {"kind": "persistent"},
        "timing": {"warmup_ps": 2_000_000_000, "measure_ps": 3_000_000_000},
        "seeds": seeds,
        "sweep": {"transport.protocol": list(TRANSPORTS),
                  "workload.n_flows": n_flows},
        "report": {"compare": "transport.protocol",
                   "objectives": {"utilization": "max", "fairness": "max",
                                  "max_queue_kb": "min"}},
    }


def spec_for(workload: str, seed: int) -> dict:
    """The scenario spec (plain data) of ``workload`` for ``seed``."""
    if workload == "packet_sweep":
        return _dumbbell("packet_sweep",
                         "one seed-slice of sweep_headline (16 cells)",
                         [seed], [2, 4, 8, 16])
    if workload == "poisson_fct":
        # smoke_mini's shape with many small flows instead of 60 flows of
        # up to 1 MB: with the heavy-tailed size draw, 60 x 1 MB made the
        # event count swing 28 % (IQR/median) from seed to seed; 600 flows
        # capped at 20 kB swing 1.9 % and churn ten times as many flows.
        return {
            "schema": SCHEMA,
            "name": "poisson_fct",
            "description": "Poisson web-search mini-matrix "
                           "(2 transports x 2 loads)",
            "topology": {"kind": "clos", "rate_bps": 10_000_000_000},
            "workload": {"kind": "poisson", "distribution": "web_search",
                         "load": 0.2, "n_flows": 600,
                         "size_cap_bytes": 20_000},
            "timing": {"drain_ps": 100_000_000_000},
            "seeds": [seed],
            "sweep": {"transport.protocol": ["expresspass", "dctcp"],
                      "workload.load": [0.2, 0.4]},
            "report": {"compare": "transport.protocol",
                       "objectives": {"avg_fct_ms": "min",
                                      "p99_fct_ms": "min"}},
        }
    if workload == "warm_rerun":
        spec = _dumbbell("warm_rerun",
                         "sweep_headline's 64 cells on the fluid backend",
                         _seed_run(seed, 4), [2, 4, 8, 16])
        spec["backend"] = "fluid"
        return spec
    if workload == "fluid_grid":
        spec = _dumbbell("fluid_grid",
                         "4 transports x 6 flow counts x 32 seeds, fluid",
                         _seed_run(seed, 32), [2, 4, 8, 16, 32, 64])
        spec["backend"] = "fluid"
        return spec
    if workload == "probe_slice":
        return _dumbbell("probe_slice",
                         "4-cell slice of packet_sweep (n_flows = 8)",
                         [seed], [8])
    if workload == "probe_fattree":
        return {
            "schema": SCHEMA,
            "name": "probe_fattree",
            "description": "one k=4 fat-tree cell, 8 ExpressPass flows",
            "topology": {"kind": "fat_tree", "rate_bps": 10_000_000_000,
                         "params": {"k": 4}},
            "workload": {"kind": "persistent", "n_flows": 8},
            "transport": {"protocol": "expresspass"},
            "timing": {"warmup_ps": 1_000_000_000,
                       "measure_ps": 1_000_000_000},
            "seeds": [seed],
        }
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{list(WORKLOADS) + list(PROBE_SPECS)}")


def cell_count(spec: dict) -> int:
    """Cells the spec must compile to: sweep cross-product x seeds."""
    n = len(spec["seeds"])
    for values in spec.get("sweep", {}).values():
        n *= len(values)
    return n


def spec_text(workload: str, seed: int) -> str:
    """Canonical bytes of the spec: same ``(workload, seed)``, same text."""
    return json.dumps(spec_for(workload, seed), indent=2) + "\n"


def write_spec(workload: str, seed: int, directory) -> pathlib.Path:
    path = pathlib.Path(directory) / f"{workload}.json"
    path.write_text(spec_text(workload, seed))
    return path
