"""RCP — Rate Control Protocol (Dukkipati, 2008).

Every link periodically computes a single fair rate ``R`` from aggregate
input traffic ``y`` and queue backlog ``q``::

    R <- R * [ 1 + (T / d) * ( alpha * (C - y) - beta * q / d ) / C ]

Data packets carry the minimum ``R`` along their path; receivers echo it on
ACKs; senders pace at the echoed rate.  New flows start at the link's
*current* rate — which is why RCP overflows shallow buffers under incast
(Fig 15) and ramps fastest in Fig 16/21.

Constants ``alpha = 0.4, beta = 1.0`` follow the RCP thesis defaults; ``d``
is the configured average RTT.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.net.packet import Packet, PacketKind
from repro.net.port import Port
from repro.sim.engine import Simulator
from repro.sim.units import SEC
from repro.transport.base import RateFlow


class RcpLinkController:
    """Per-port RCP rate computation and header stamping."""

    def __init__(self, sim: Simulator, port: Port, avg_rtt_ps: int,
                 alpha: float = 0.4, beta: float = 1.0,
                 min_rate_bps: float = 1e7):
        self.sim = sim
        self.port = port
        self.capacity_bps = float(port.rate_bps)
        self.avg_rtt_ps = avg_rtt_ps
        self.alpha = alpha
        self.beta = beta
        self.min_rate_bps = min_rate_bps
        self.rate_bps = self.capacity_bps  # new flows start at the current rate
        self._arrived_bytes = 0
        sim.schedule_unref(avg_rtt_ps, self._update)

    def on_arrival(self, pkt: Packet, now_ps: int) -> None:
        """Called by the port for every non-credit packet it accepts.

        Data *and* control (SYN) packets are stamped with the link's rate,
        so a new flow starts at the path's current R — "RCP assigns the
        same rate for a new flow as existing flows".
        """
        if pkt.kind == PacketKind.DATA:
            self._arrived_bytes += pkt.wire_bytes
        elif pkt.kind != PacketKind.CONTROL:
            return
        if pkt.rcp_rate is None or self.rate_bps < pkt.rcp_rate:
            pkt.rcp_rate = self.rate_bps

    def _update(self) -> None:
        interval_s = self.avg_rtt_ps / SEC
        y_bps = self._arrived_bytes * 8 / interval_s
        self._arrived_bytes = 0
        q_bits = self.port.data_queue.bytes * 8
        # d is the average RTT of flows through this link *including* their
        # queueing delay here — standing backlog stretches the drain target
        # (classic RCP uses the moving average of measured RTTs).
        d_s = self.avg_rtt_ps / SEC + q_bits / self.capacity_bps
        delta = (interval_s / d_s) * (
            self.alpha * (self.capacity_bps - y_bps) - self.beta * q_bits / d_s
        ) / self.capacity_bps
        self.rate_bps *= 1 + delta
        self.rate_bps = min(max(self.rate_bps, self.min_rate_bps), self.capacity_bps)
        self.sim.schedule_unref(self.avg_rtt_ps, self._update)


def install_rcp(sim: Simulator, ports: Iterable[Port], avg_rtt_ps: int,
                alpha: float = 0.4, beta: float = 1.0) -> list:
    """Attach an RCP controller to every port; returns the controllers."""
    controllers = []
    for port in ports:
        controller = RcpLinkController(sim, port, avg_rtt_ps, alpha, beta)
        port.rcp_controller = controller
        controllers.append(controller)
    return controllers


class RcpFlow(RateFlow):
    """An RCP sender: paces at the path's stamped rate, echoed via ACKs."""

    def __init__(self, src, dst, size_bytes, start_ps=0, *,
                 initial_rate_bps: Optional[float] = None, **kwargs):
        # Until the first feedback arrives, send at the NIC line rate: RCP
        # flows inherit the link's current rate within one RTT anyway, and
        # the paper's incast failure mode depends on this aggressive start.
        if initial_rate_bps is None:
            initial_rate_bps = float(src.nic.rate_bps)
        super().__init__(src, dst, size_bytes, start_ps,
                         initial_rate_bps=initial_rate_bps, **kwargs)

    def cc_on_ack(self, pkt: Packet) -> None:
        if pkt.rcp_rate is not None:
            self.rate_bps = pkt.rcp_rate
