"""Fig 10: parking-lot utilization — naive credits vs the feedback loop.

One long flow crosses N bottlenecks, each also carrying a one-hop cross
flow.  With naive max-rate credits, upstream links carry credits that will
be dropped downstream, wasting reverse-path bandwidth: utilization of the
worst link drops to 83.3 % with two bottlenecks and ~60 % with six.  The
feedback loop keeps every link ≳97 %.

Utilization is normalized to the maximum *data* rate (excluding the credit
reservation), as in the paper.  Each row is one cell of the §3.4 spec
(:func:`run_cells`, shared with Fig 11): the persistent cell on 2 µs links
with a 40 µs base RTT, swept over N + 1 flows × naive/feedback.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, MS, US

#: The §3.4 comparison: each protocol the spec sweeps, by its row label.
MODES = {"expresspass-naive": "naive", "expresspass": "feedback"}

COLUMNS = ["bottlenecks", "mode", "min_link_utilization"]


def run_cells(name: str, topology: str, counts: Sequence[int],
              rate_bps: int, warmup_ps: int, measure_ps: int,
              seed: int) -> List[dict]:
    """The successful cells' ``run_persistent`` rows of the §3.4 spec on
    ``topology`` (pooled, cached, journaled and audited per cell): one long
    flow plus ``n`` others for each ``n`` in ``counts``, naive first."""
    from repro.scenarios import Scenario, run_matrix
    from repro.scenarios.schema import SCHEMA

    spec = {
        "schema": SCHEMA,
        "name": name,
        "topology": {"kind": topology, "rate_bps": rate_bps,
                     "prop_delay_ps": 2 * US,
                     "params": {"base_rtt_ps": 40 * US}},
        "workload": {"kind": "persistent"},
        "timing": {"warmup_ps": warmup_ps, "measure_ps": measure_ps},
        "seeds": [seed],
        "sweep": {"workload.n_flows": [n + 1 for n in counts],
                  "transport.protocol": list(MODES)},
    }
    return run_matrix(Scenario.from_dict(spec, source=name)).values()


def run(
    counts: Sequence[int] = (1, 2, 3, 4, 5, 6),
    rate_bps: int = 10 * GBPS,
    warmup_ps: int = 30 * MS,
    measure_ps: int = 50 * MS,
    seed: int = 1,
) -> ExperimentResult:
    rows = [{"bottlenecks": value["flows"] - 1,
             "mode": MODES[value["protocol"]],
             "min_link_utilization": value["min_link_utilization"]}
            for value in run_cells("fig10", "parking_lot", counts, rate_bps,
                                   warmup_ps, measure_ps, seed)]
    return ExperimentResult(
        name="Fig 10 parking-lot utilization (worst link, normalized to max data rate)",
        columns=COLUMNS, rows=rows)
