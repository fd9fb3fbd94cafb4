"""Closed-loop partition/aggregate incast (the literal §2 / Fig 1 workload).

The paper's Fig 1 traffic is not open-loop: "a single master server
continuously generates a 200 B request to multiple workers using persistent
connections, and each worker responds with 1 000 B of data for each
request".  This experiment reproduces that loop with the
:class:`~repro.apps.rpc.PartitionAggregate` application and reports the
master-downlink queue and per-round (wave) latency across fan-outs.

The open-loop variant (persistent senders) lives in
:mod:`repro.experiments.fig01_queue_buildup`; the two bracket the paper's
methodology.  Each row is one cell of Fig 1's fan-in spec with
``workload.rounds`` set.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.fig01_queue_buildup import pivot, run_cells
from repro.experiments.table import ExperimentResult
from repro.sim.units import GBPS, SEC

COLUMNS = ["protocol", "fan_in", "rounds_done", "wave_ms_p50", "wave_ms_p99",
           "downlink_queue_max_pkts", "data_drops"]


def run(
    protocols: Sequence[str] = ("expresspass", "dctcp"),
    fan_ins: Sequence[int] = (8, 32, 64),
    n_hosts: int = 16, rounds: int = 50, response_bytes: int = 1000,
    rate_bps: int = 10 * GBPS, seed: int = 1,
) -> ExperimentResult:
    values = run_cells("incast", protocols, fan_ins,
                       {"flow_bytes": response_bytes, "rounds": rounds},
                       n_hosts, rate_bps, 30 * SEC, seed)
    return pivot("Closed-loop partition/aggregate incast (§2 workload)",
                 COLUMNS, values)
