"""Closed-loop partition/aggregate traffic over any transport.

An "RPC" here is a pair of flows: a small request flow (client → server)
followed, on completion, by a response flow (server → client).  The next
request wave is issued only after every response lands — the closed loop
that makes partition/aggregate traffic bursty at the aggregator (§2).

The application is transport-agnostic: it builds flows through a
:class:`~repro.experiments.runner.ProtocolHarness`, so the same workload
runs unchanged over ExpressPass, DCTCP, or any other registered protocol.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.runner import ProtocolHarness
from repro.net.host import Host
from repro.sim.engine import Simulator


class PartitionAggregate:
    """A master fanning a request wave to N workers (§2's traffic pattern).

    Each round, the master sends ``request_bytes`` to *every* worker; each
    worker replies with ``response_bytes``; when **all** responses are in,
    the round latency is recorded and the next wave starts.  The barrier is
    what synchronizes the responses into an incast at the master's downlink.
    """

    def __init__(
        self,
        sim: Simulator,
        harness: ProtocolHarness,
        master: Host,
        workers: List[Host],
        request_bytes: int = 200,
        response_bytes: int = 1000,
        rounds: Optional[int] = None,
        start_ps: int = 0,
    ):
        if not workers:
            raise ValueError("need at least one worker")
        self.sim = sim
        self.harness = harness
        self.master = master
        self.workers = list(workers)
        self.request_bytes = request_bytes
        self.response_bytes = response_bytes
        self.rounds = rounds
        self.round_latencies_ps: List[int] = []
        self.completed_rounds = 0
        self._outstanding = 0
        self._round_start_ps = 0
        sim.schedule_at(max(start_ps, sim.now), self._start_round)

    def _start_round(self) -> None:
        if self.rounds is not None and self.completed_rounds >= self.rounds:
            return
        self._round_start_ps = self.sim.now
        self._outstanding = len(self.workers)
        for worker in self.workers:
            request = self.harness.flow(self.master, worker,
                                        self.request_bytes, start_ps=self.sim.now)
            request.on_complete.append(self._request_done)

    def _request_done(self, flow) -> None:
        worker = flow.dst
        response = self.harness.flow(worker, self.master,
                                     self.response_bytes, start_ps=self.sim.now)
        response.on_complete.append(self._response_done)

    def _response_done(self, flow) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self.round_latencies_ps.append(self.sim.now - self._round_start_ps)
            self.completed_rounds += 1
            if self.rounds is None or self.completed_rounds < self.rounds:
                self.sim.schedule_unref(1, self._start_round)
