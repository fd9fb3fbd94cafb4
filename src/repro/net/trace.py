"""Packet tracing: capture per-port transmit events for debugging/analysis.

A :class:`PortTracer` wraps a port's ``_transmit`` and records
``(time_ps, kind, src, dst, seq, wire_bytes)`` tuples — a minimal pcap
analog that tests and notebooks can assert against or dump as text::

    tracer = PortTracer(port)
    ...
    tracer.records[:5]
    print(tracer.format())

Tracing costs one extra function call per packet on the traced port only;
untraced ports are unaffected.  Tracers *compose*: tracing a port that
already has a transmit hook (another tracer, an audit observer) chains the
existing hook rather than replacing it, and :meth:`PortTracer.detach`
restores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.packet import Packet, PacketKind
from repro.net.port import Port
from repro.sim.units import fmt_time


@dataclass(frozen=True)
class TraceRecord:
    time_ps: int
    kind: str
    src: int
    dst: int
    seq: int
    credit_seq: int
    wire_bytes: int

    def __str__(self) -> str:
        return (f"{fmt_time(self.time_ps):>12s}  {self.kind:<14s} "
                f"{self.src}->{self.dst} seq={self.seq} "
                f"cseq={self.credit_seq} {self.wire_bytes}B")


class PortTracer:
    """Records every packet a port puts on the wire."""

    def __init__(self, port: Port, keep: Optional[int] = None,
                 predicate: Optional[Callable[[Packet], bool]] = None):
        self.port = port
        self.keep = keep
        self.predicate = predicate
        self.records: List[TraceRecord] = []
        self._active = True
        # Chain rather than replace: any hook already on the port (another
        # tracer, an audit probe) still sees every packet.  The bound method
        # is pinned so detach() can compare identity.
        self._prev = port.on_transmit
        self._hook = self._record
        port.on_transmit = self._hook

    def _record(self, pkt: Packet) -> None:
        if self._prev is not None:
            self._prev(pkt)
        if not self._active:
            return
        if self.predicate is None or self.predicate(pkt):
            self.records.append(TraceRecord(
                time_ps=self.port.sim.now,
                kind=PacketKind(pkt.kind).name,
                src=pkt.src,
                dst=pkt.dst,
                seq=pkt.seq,
                credit_seq=pkt.credit_seq,
                wire_bytes=pkt.wire_bytes,
            ))
            if self.keep is not None and len(self.records) > self.keep:
                del self.records[0]

    def detach(self) -> None:
        """Stop recording and unchain, restoring any wrapped hook.

        If another hook was installed on top of this tracer after it
        attached, the chain cannot be unlinked in place; recording simply
        stops while the chain keeps forwarding.
        """
        self._active = False
        if self.port.on_transmit is self._hook:
            self.port.on_transmit = self._prev

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.records)
        return sum(1 for r in self.records if r.kind == kind)

    def format(self, limit: int = 50) -> str:
        lines = [str(r) for r in self.records[:limit]]
        if len(self.records) > limit:
            lines.append(f"... {len(self.records) - limit} more")
        return "\n".join(lines)
