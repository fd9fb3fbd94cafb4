"""Packets and Ethernet wire-size accounting.

All sizes are *wire* sizes: they include the 12 B inter-packet gap, 8 B
preamble, 14 B Ethernet header, and 4 B FCS (38 B total overhead), matching
the paper's accounting: a minimum frame occupies 84 B on the wire and a
maximum frame 1538 B.  Credit packets are minimum-size frames; ExpressPass
randomizes their wire size between 84 and 92 B to break switch-level
synchronization (§3.1, "Ensuring fair credit drop").

The credit rate limit falls out of these numbers: one 84 B credit authorizes
one 1538 B data frame, so credits are limited to 84 / (84 + 1538) ≈ 5.18 % of
link capacity and data fills the remaining ≈ 94.8 %.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import count
from typing import Optional

ETHERNET_OVERHEAD = 38  # preamble 8 + header 14 + FCS 4 + IPG 12
MIN_WIRE = 84  # minimum Ethernet frame on the wire
CREDIT_WIRE_MIN = 84
CREDIT_WIRE_MAX = 92  # randomized credit sizes (84..92 B) add switch-level jitter
DATA_WIRE_MAX = 1538  # maximum Ethernet frame on the wire
MTU_PAYLOAD = DATA_WIRE_MAX - ETHERNET_OVERHEAD  # usable bytes per data frame

# One credit schedules one max-size data frame (1538 B).  Credit sizes are
# randomized 84..92 B (mean 88 B) to jitter switch-level drain times (§3.1),
# so the credit-rate reservation uses the *mean* size: data then fills
# 1538/1626 ~ 94.6 % of a link on average, matching the paper's ~94.8 %.
CREDIT_WIRE_MEAN = (CREDIT_WIRE_MIN + CREDIT_WIRE_MAX) // 2
CREDIT_RATE_FRACTION_NUM = CREDIT_WIRE_MEAN
CREDIT_RATE_FRACTION_DEN = CREDIT_WIRE_MEAN + DATA_WIRE_MAX  # 1626


class PacketKind(IntEnum):
    """Wire-level packet classification.

    ``CREDIT``-kind packets (and only those) are steered to the rate-limited
    credit queue at every port; everything else shares the data queue, which
    mirrors the paper's tag-based classification on commodity switches.
    """

    DATA = 0
    CREDIT = 1
    CREDIT_REQUEST = 2
    CREDIT_STOP = 3
    ACK = 4
    CONTROL = 5  # SYN/FIN-style signalling for the baseline transports


_packet_ids = count()


class Packet:
    """A simulated packet.

    Attributes double as protocol headers; unused fields stay at their
    defaults.  ``flow`` is a direct reference to the owning flow object so
    that delivery at a host is a method call, not a table lookup.
    """

    __slots__ = (
        "kind",
        "is_credit",
        "src",
        "dst",
        "flow",
        "wire_bytes",
        "payload_bytes",
        "seq",
        "ack",
        "credit_seq",
        "ecn_capable",
        "ecn_marked",
        "ecn_echo",
        "rcp_rate",
        "sent_ts",
        "low_priority",
        "uid",
        "hops",
    )

    def __init__(
        self,
        kind: PacketKind,
        src: int,
        dst: int,
        flow=None,
        wire_bytes: int = MIN_WIRE,
        payload_bytes: int = 0,
        seq: int = -1,
        ack: int = -1,
        credit_seq: int = -1,
        ecn_capable: bool = False,
        sent_ts: int = -1,
    ):
        self.kind = kind
        #: ``kind`` is never reassigned, so the port's per-hop test is a
        #: slot read instead of a property call.
        self.is_credit = kind == PacketKind.CREDIT
        self.src = src
        self.dst = dst
        self.flow = flow
        self.wire_bytes = wire_bytes
        self.payload_bytes = payload_bytes
        self.seq = seq
        self.ack = ack
        self.credit_seq = credit_seq
        self.ecn_capable = ecn_capable
        self.ecn_marked = False
        self.ecn_echo = False
        self.rcp_rate: Optional[int] = None
        self.sent_ts = sent_ts
        self.low_priority = False
        self.uid = next(_packet_ids)
        self.hops: Optional[list] = None  # populated only when path tracing is on

    def trace_hop(self, node_id: int) -> None:
        """Record a node on the packet's path (used by path-symmetry tests)."""
        if self.hops is not None:
            self.hops.append(node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.kind.name} {self.src}->{self.dst} "
            f"seq={self.seq} wire={self.wire_bytes}B>"
        )


def data_packet(src: int, dst: int, flow, payload_bytes: int, seq: int,
                credit_seq: int = -1, ecn_capable: bool = False,
                sent_ts: int = -1) -> Packet:
    """Build a data packet; wire size = payload + Ethernet overhead, floored
    at the minimum frame size."""
    wire = max(MIN_WIRE, payload_bytes + ETHERNET_OVERHEAD)
    if wire > DATA_WIRE_MAX:
        raise ValueError(f"payload {payload_bytes}B exceeds MTU {MTU_PAYLOAD}B")
    return Packet(
        PacketKind.DATA,
        src,
        dst,
        flow=flow,
        wire_bytes=wire,
        payload_bytes=payload_bytes,
        seq=seq,
        credit_seq=credit_seq,
        ecn_capable=ecn_capable,
        sent_ts=sent_ts,
    )


def credit_packet(src: int, dst: int, flow, credit_seq: int,
                  wire_bytes: int = CREDIT_WIRE_MIN) -> Packet:
    """Build a credit packet (minimum-size frame, optionally jittered)."""
    if not CREDIT_WIRE_MIN <= wire_bytes <= CREDIT_WIRE_MAX:
        raise ValueError(f"credit wire size {wire_bytes}B outside 84..92B")
    return Packet(
        PacketKind.CREDIT,
        src,
        dst,
        flow=flow,
        wire_bytes=wire_bytes,
        credit_seq=credit_seq,
    )
