"""Fig 1: bottleneck data-queue length vs number of concurrent flows.

A partition/aggregate-style fan-in: N workers continuously stream responses
to one master.  Even the *ideal* rate control (every flow perfectly paced at
its exact fair share) builds a queue that grows with N, because packets of
independently paced flows collide at the bottleneck; DCTCP builds far more;
the credit-based scheme bounds the queue regardless of fan-in because the
credit arrival order *schedules* data arrivals.

The paper runs fan-outs 32..2048 on an 8-ary fat tree; the default here is a
single ToR with fan-in 8..128 (workers wrap onto hosts exactly as in the
paper when N exceeds the host count).  Queue statistics are taken on the
master's downlink — the incast bottleneck.  Each row is one cell of the
fan-in spec (:func:`run_cells`, shared with the closed-loop incast and the
RDMA comparison): persistent senders whose starts spread over one RTT.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, MS, US

#: The fan-in figures' control RTT (their links are 2 us).
BASE_RTT_PS = 20 * US

COLUMNS = ["protocol", "fan_in", "queue_pkts_p50", "queue_pkts_p99",
           "queue_pkts_max", "data_drops"]

#: The incast cell's key for each figure column named differently.
CELL_KEYS = {"fan_in": "flows", "queue_pkts_max": "downlink_queue_max_pkts"}


def run_cells(name: str, protocols: Sequence[str], fan_ins: Sequence[int],
              workload: dict, hosts: int, rate_bps: int, measure_ps: int,
              seed: int) -> List[dict]:
    """The successful cells' ``run_incast`` rows of the fan-in spec
    (pooled, cached, journaled and audited per cell): ``workload``'s
    traffic on a ``hosts``-port switch with 2 us links and a 20 us base
    RTT, protocol outer × fan-in inner."""
    from repro.scenarios import Scenario, run_matrix
    from repro.scenarios.schema import SCHEMA

    spec = {
        "schema": SCHEMA,
        "name": name,
        "topology": {"kind": "single_switch", "rate_bps": rate_bps,
                     "prop_delay_ps": 2 * US,
                     "params": {"base_rtt_ps": BASE_RTT_PS, "hosts": hosts}},
        "workload": {"kind": "incast", **workload},
        "timing": {"measure_ps": measure_ps},
        "seeds": [seed],
        "sweep": {"transport.protocol": list(protocols),
                  "workload.n_flows": list(fan_ins)},
    }
    return run_matrix(Scenario.from_dict(spec, source=name)).values()


def pivot(title: str, columns: List[str],
          values: List[dict]) -> ExperimentResult:
    """The figure's table: each of ``columns`` read off each cell value
    (under its :data:`CELL_KEYS` name)."""
    rows = [{col: value[CELL_KEYS.get(col, col)] for col in columns}
            for value in values]
    return ExperimentResult(name=title, columns=columns, rows=rows)


def run(
    protocols: Sequence[str] = ("ideal", "dctcp", "expresspass"),
    fan_ins: Sequence[int] = (8, 16, 32, 64, 128),
    n_hosts: int = 16, rate_bps: int = 10 * GBPS, duration_ps: int = 20 * MS,
    seed: int = 1,
) -> ExperimentResult:
    # Stagger starts within one RTT: the paper's workers respond to a
    # request wave, which arrives spread over the fan-out.
    values = run_cells("fig1", protocols, fan_ins,
                       {"start_jitter_ps": BASE_RTT_PS}, n_hosts, rate_bps,
                       duration_ps, seed)
    return pivot("Fig 1 data-queue length vs concurrent flows", COLUMNS,
                 values)
