"""Priority Flow Control (IEEE 802.1Qbb analog).

The RDMA congestion controls the paper compares against (§8: DCQCN, TIMELY)
assume a *lossless* fabric built on PFC: when a queue passes XOFF, the
switch pauses its upstream neighbors' data traffic until it drains below
XON.  This prevents loss but causes head-of-line blocking and pause storms
under incast — the contrast ExpressPass draws (§1: "they rely on priority
flow control (PFC) ... to prevent data loss").

Model: the fabric is output-queued, so congestion shows up in egress data
queues.  When any egress queue at node N crosses XOFF, the controller sends
PAUSE toward *all* of N's neighbors (a real switch pauses the ingress ports
feeding the congested egress; with output queueing every ingress can feed
every egress).  PAUSE/RESUME take one propagation delay to arrive — modeled
as MAC control frames that bypass data queues — and pause only the *data*
class: credits and control packets keep flowing, exactly as PFC operates
per traffic class.

Head-of-line blocking and even pause deadlocks on cyclic topologies are
*intentional* emergent behaviours, not bugs: they are the phenomena being
studied.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.net.port import Port
from repro.sim.engine import Simulator


class PfcController:
    """Watches every installed port's data queue and issues PAUSE/RESUME."""

    def __init__(self, sim: Simulator, xoff_bytes: int, xon_bytes: int):
        if not 0 <= xon_bytes < xoff_bytes:
            raise ValueError("need 0 <= xon < xoff")
        self.sim = sim
        self.xoff_bytes = xoff_bytes
        self.xon_bytes = xon_bytes
        self._node_paused: Dict[int, bool] = {}
        self._ports_by_node: Dict[int, list] = {}
        self.pauses_sent = 0
        self.resumes_sent = 0

    def install(self, ports: Iterable[Port]) -> None:
        for port in ports:
            port.pfc = self
            self._ports_by_node.setdefault(port.node.id, []).append(port)
            self._node_paused.setdefault(port.node.id, False)

    # -- queue watching ------------------------------------------------------
    def on_queue_change(self, port: Port) -> None:
        node_id = port.node.id
        if not self._node_paused[node_id]:
            if port.data_queue.bytes >= self.xoff_bytes:
                self._node_paused[node_id] = True
                self._signal_neighbors(port.node, paused=True)
                self.pauses_sent += 1
        else:
            # Resume once *every* egress at this node is below XON.
            if all(p.data_queue.bytes <= self.xon_bytes
                   for p in self._ports_by_node[node_id]):
                self._node_paused[node_id] = False
                self._signal_neighbors(port.node, paused=False)
                self.resumes_sent += 1

    def _signal_neighbors(self, node, paused: bool) -> None:
        """Deliver PAUSE/RESUME to every upstream egress after wire delay."""
        for my_port in node.ports.values():
            peer_node = my_port.peer
            upstream = peer_node.ports.get(node.id)
            if upstream is None:
                continue
            self.sim.schedule_unref(upstream.prop_delay_ps,
                                    upstream.set_pfc_paused, paused)

    def node_is_paused(self, node_id: int) -> bool:
        return self._node_paused.get(node_id, False)


def install_pfc(sim: Simulator, ports: Iterable[Port],
                xoff_bytes: int = 150_000,
                xon_bytes: int = 100_000) -> PfcController:
    """Attach PFC to ``ports``; defaults sized for shallow 10 G buffers."""
    controller = PfcController(sim, xoff_bytes, xon_bytes)
    controller.install(ports)
    return controller
