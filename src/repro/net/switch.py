"""Output-queued switch with ECMP forwarding."""

from __future__ import annotations

from typing import Dict, List

from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.routing import symmetric_flow_hash
from repro.sim.engine import Simulator


class Switch(Node):
    """A switch forwards packets using its ECMP table.

    ``table[dst_host_id]`` is a sorted list of next-hop node ids on shortest
    paths (see :mod:`repro.net.routing`).  Among several candidates the index
    is ``flow.path_hash % len(candidates)`` — with symmetric hashing this
    mirrors credit and data paths.
    """

    def __init__(self, sim: Simulator, node_id: int, name: str = ""):
        super().__init__(sim, node_id, name or f"sw{node_id}")
        self.table: Dict[int, List[int]] = {}

    def receive(self, pkt: Packet, from_port) -> None:
        if pkt.hops is not None:
            pkt.hops.append(self.id)
        candidates = self.table.get(pkt.dst)
        if not candidates:
            # Under an active fault plan a destination can be legitimately
            # unreachable (switch blackout, partitioned fabric): the packet
            # blackholes here, accounted so audit conservation still closes.
            chaos = self.sim.chaos
            if chaos is not None:
                chaos.record_blackhole(pkt, self)
                return
            raise RuntimeError(f"{self.name}: no route to host {pkt.dst}")
        if len(candidates) == 1:
            next_hop = candidates[0]
        elif pkt.flow is not None:
            next_hop = candidates[pkt.flow.path_hash(pkt) % len(candidates)]
        else:
            # Flow-less (probes, background chatter): hash the endpoints,
            # direction-independently, so a probe and its reply share a path.
            next_hop = candidates[symmetric_flow_hash(pkt.src, pkt.dst, 0, 0)
                                  % len(candidates)]
        self.ports[next_hop].send(pkt)
