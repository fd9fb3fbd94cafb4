"""ExpressPass vs the deployed RDMA congestion controls (§8 context).

DCQCN and TIMELY achieve zero loss by running over PFC; ExpressPass
achieves it by scheduling data with credits.  This experiment puts all
three under the same synchronized incast and reports what each pays:

* data drops (should be 0 everywhere — different mechanisms, same goal),
* PFC pause events (only the RDMA schemes generate them),
* bottleneck queue (credits keep it near zero; PFC lets it grow to XOFF),
* incast FCT statistics.

Each row is one cell of Fig 1's fan-in spec: one ``response_kb`` response
from each of ``fan_in`` workers on a ``fan_in + 1``-port switch.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.fig01_queue_buildup import pivot, run_cells
from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, KB, SEC

COLUMNS = ["protocol", "completed", "fct_ms_p50", "fct_ms_max", "data_drops",
           "pfc_pauses", "max_queue_kb"]


def run(protocols: Sequence[str] = ("expresspass", "dcqcn", "timely"),
        fan_in: int = 8, response_kb: int = 64, rate_bps: int = 10 * GBPS,
        seed: int = 1) -> ExperimentResult:
    values = run_cells("rdma", protocols, (fan_in,),
                       {"flow_bytes": response_kb * KB}, fan_in + 1, rate_bps,
                       2 * SEC, seed)
    return pivot("ExpressPass vs RDMA congestion controls under incast",
                 COLUMNS, values)
