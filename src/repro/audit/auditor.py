"""The network auditor: cheap always-on observers for ExpressPass's laws.

:class:`NetworkAuditor` attaches observation-only probes to a simulation and
checks, continuously, the invariants the paper states unconditionally:

``clock-monotonicity``
    The integer-picosecond event clock never moves backwards (guards heap or
    scheduling corruption; :mod:`repro.sim.engine`).
``credit-rate``
    No port ever puts credits on the wire faster than the 84/1622 ≈ 5 %
    reservation plus its 2-credit burst (§3.1 "maximum bandwidth metering").
    Implemented as an independent token-bucket *mirror* with the same
    parameters as the port's real bucket, fed only by observed transmits —
    so a broken or tampered bucket in :mod:`repro.net.port` is caught by
    construction.
``buffer-bound``
    Data-queue occupancy never exceeds a configured bound (defaults to the
    port's physical capacity; tests pass the Table 1 zero-loss bound from
    :mod:`repro.calculus` to make the check sharp).
``packet-conservation`` / ``credit-conservation``
    Per port: every packet that hit the wire was enqueued exactly once and
    vice versa (minus what still sits in the queue).  Per ExpressPass flow,
    at quiescence: ``credits_sent == credits_received + credit_drops`` —
    a *silently* lost credit (fault injection, a buggy drop path) breaks
    this even though every accounted drop keeps it intact.
``path-symmetry``
    The set of links credits traversed is the exact reverse of the links
    data traversed (§3.1); a flow hashed asymmetrically is named.
``completion-exactness``
    A completed finite flow delivered exactly ``size_bytes``; a drained
    simulation leaves no started, unstopped flow incomplete.

Observers never consume randomness, never schedule events, and never touch
simulation state — audited runs are bit-identical to unaudited runs
(asserted by differential tests).  Violations carry a short transmit trace
from the offending port's ring buffer, reusing
:class:`repro.net.trace.TraceRecord`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.audit.report import AuditReport
from repro.net.packet import (
    CREDIT_RATE_FRACTION_DEN,
    CREDIT_RATE_FRACTION_NUM,
    CREDIT_WIRE_MAX,
    Packet,
    PacketKind,
)
from repro.net.queues import TokenBucket
from repro.net.trace import TraceRecord

#: Float slack (wire bytes) between the port's token bucket and the audit
#: mirror, absorbing refill-order rounding differences.  The smallest
#: meaningful over-drain is one 84 B credit, so a couple of bytes is safe.
METER_SLACK_BYTES = 2.0


def _queue_totals(queue) -> Tuple[int, int]:
    """(enqueued, dropped) for a CreditQueue or ClassifiedCreditQueues."""
    try:
        return queue.stats.enqueued, queue.stats.dropped
    except AttributeError:
        subqueues = queue.queues.values()
        return (sum(q.stats.enqueued for q in subqueues),
                sum(q.stats.dropped for q in subqueues))


class _PortAudit:
    """Per-port probe: transmit meter mirror, trace ring, enqueue bound."""

    __slots__ = ("auditor", "port", "mirror", "ring",
                 "data_tx", "credit_tx", "_prev_transmit", "_prev_enqueue")

    def __init__(self, auditor: "NetworkAuditor", port, keep: int):
        self.auditor = auditor
        self.port = port
        credit_rate = (port.rate_bps * CREDIT_RATE_FRACTION_NUM
                       // CREDIT_RATE_FRACTION_DEN)
        self.mirror = TokenBucket(
            credit_rate, burst_bytes=2 * CREDIT_WIRE_MAX + METER_SLACK_BYTES)
        self.ring: deque = deque(maxlen=keep)
        self.data_tx = 0
        self.credit_tx = 0
        # Chain, never replace: a PortTracer (or another auditor) installed
        # earlier keeps seeing every packet.
        self._prev_transmit = port.on_transmit
        port.on_transmit = self.on_transmit
        self._prev_enqueue = port.on_enqueue
        port.on_enqueue = self.on_enqueue

    def trace_tail(self) -> Tuple[str, ...]:
        return tuple(str(r) for r in self.ring)

    # -- wire-side observer -------------------------------------------------
    def on_transmit(self, pkt: Packet) -> None:
        if self._prev_transmit is not None:
            self._prev_transmit(pkt)
        auditor = self.auditor
        report = auditor.report
        now = self.port.sim.now
        self.ring.append(TraceRecord(
            time_ps=now, kind=PacketKind(pkt.kind).name, src=pkt.src,
            dst=pkt.dst, seq=pkt.seq, credit_seq=pkt.credit_seq,
            wire_bytes=pkt.wire_bytes))
        report.count("transmits")
        if pkt.is_credit:
            self.credit_tx += 1
            report.count("credits_metered")
            if not self.mirror.try_consume(pkt.wire_bytes, now):
                report.add(
                    "credit-rate", self.port.name, now,
                    f"credit of {pkt.wire_bytes}B exceeds the "
                    f"{CREDIT_RATE_FRACTION_NUM}/{CREDIT_RATE_FRACTION_DEN} "
                    f"rate reservation (mirror tokens "
                    f"{self.mirror.tokens:.1f}B; burst allowance "
                    f"{2 * CREDIT_WIRE_MAX}B) — oversized burst or broken "
                    f"port meter",
                    trace=self.trace_tail())
                # Keep the mirror sane so one systematic leak is reported
                # as repeats of a single offense, not cascading debt.
                self.mirror.tokens = 0.0
        else:
            self.data_tx += 1
        flow = pkt.flow
        if flow is not None:
            link = (self.port.node.id, self.port.peer.id)
            if pkt.kind == PacketKind.DATA:
                auditor.flow_links(flow)[0].add(link)
            elif pkt.is_credit:
                auditor.flow_links(flow)[1].add(link)

    # -- queue-side observer ------------------------------------------------
    def on_enqueue(self, pkt: Packet, accepted: bool) -> None:
        if self._prev_enqueue is not None:
            self._prev_enqueue(pkt, accepted)
        report = self.auditor.report
        report.count("enqueues")
        if pkt.is_credit or pkt.low_priority or not accepted:
            return
        bound = self.auditor.buffer_bound_bytes
        occupancy = self.port.data_queue.bytes
        limit = bound if bound is not None else self.port.data_queue.capacity_bytes
        if occupancy > limit:
            kind = ("configured (Table 1) bound" if bound is not None
                    else "physical capacity")
            report.add(
                "buffer-bound", self.port.name, self.port.sim.now,
                f"data queue holds {occupancy}B > {limit}B {kind}",
                trace=self.trace_tail())

    # -- end-of-run bookkeeping --------------------------------------------
    def finalize(self) -> None:
        report = self.auditor.report
        port = self.port
        dq = port.data_queue
        expected_data = dq.stats.enqueued - len(dq)
        if port.lowprio_queue is not None:
            lq = port.lowprio_queue
            expected_data += lq.stats.enqueued - len(lq)
        if self.data_tx != expected_data:
            report.add(
                "packet-conservation", port.name, port.sim.now,
                f"{self.data_tx} data packets hit the wire but "
                f"{expected_data} left the queues (enqueued minus resident)",
                trace=self.trace_tail())
        enqueued, _ = _queue_totals(port.credit_queue)
        expected_credit = enqueued - len(port.credit_queue)
        if self.credit_tx != expected_credit:
            report.add(
                "credit-conservation", port.name, port.sim.now,
                f"{self.credit_tx} credits hit the wire but "
                f"{expected_credit} left the credit queue",
                trace=self.trace_tail())


class NetworkAuditor:
    """Attaches probes across a simulation and aggregates an AuditReport.

    One auditor serves one :class:`~repro.sim.engine.Simulator` (it installs
    itself as ``sim.auditor``); attach any number of networks to it.  Flows
    self-register at construction via ``sim.auditor``.

    Parameters
    ----------
    sim:
        The simulator to watch.
    keep:
        Transmit-trace ring size per port (context for first offenses).
    buffer_bound_bytes:
        Data-queue occupancy bound checked on every enqueue.  ``None``
        checks against each queue's physical capacity (an accounting
        tripwire); pass a Table 1 bound to assert the paper's zero-loss
        guarantee sharply.
    """

    def __init__(self, sim, keep: int = 32,
                 buffer_bound_bytes: Optional[int] = None):
        existing = sim.auditor
        if existing is not None and existing is not self:
            raise RuntimeError("simulator already has an auditor attached")
        self.sim = sim
        self.report = AuditReport()
        self.buffer_bound_bytes = buffer_bound_bytes
        self.keep = keep
        self._ports: Dict[int, _PortAudit] = {}   # id(port) -> probe
        self._flows: List[object] = []
        self._flow_links: Dict[int, Tuple[Set, Set]] = {}  # fid -> (data, credit)
        self._last_event_ps: Optional[int] = None
        self._finalized = False
        sim.auditor = self

    # -- engine observer ----------------------------------------------------
    def on_event(self, time_ps: int) -> None:
        """Called by the event loop for every dispatched event."""
        self.report.count("events")
        last = self._last_event_ps
        if last is not None and time_ps < last:
            self.report.add(
                "clock-monotonicity", "simulator", time_ps,
                f"event dispatched at t={time_ps}ps after t={last}ps — "
                f"the integer-picosecond clock moved backwards")
        self._last_event_ps = time_ps

    # -- attachment ---------------------------------------------------------
    def attach_network(self, net) -> "NetworkAuditor":
        for port in net.ports:
            self.attach_port(port)
        return self

    def attach_port(self, port) -> None:
        if id(port) in self._ports:
            return
        self._ports[id(port)] = _PortAudit(self, port, self.keep)
        self.report.count("ports")

    def register_flow(self, flow) -> None:
        self._flows.append(flow)
        self.report.count("flows")

    def on_credit_rate_change(self, port, rate_bps: int) -> None:
        """Track an *authorized* credit-meter reconfiguration (chaos
        ``credit_meter`` faults).  The mirror follows the configured rate —
        the injected misconfiguration itself is budgeted fault-plane
        behaviour, while a port transmitting faster than even its (mis)
        configured meter allows is still a violation."""
        probe = self._ports.get(id(port))
        if probe is None:
            return
        probe.mirror.set_rate(rate_bps, self.sim.now)
        self.report.count("credit_rate_reconfigs")

    def flow_links(self, flow) -> Tuple[Set, Set]:
        links = self._flow_links.get(flow.fid)
        if links is None:
            links = (set(), set())
            self._flow_links[flow.fid] = links
        return links

    # -- end-of-run checks --------------------------------------------------
    def finalize(self) -> AuditReport:
        """Run the quiescence checks; idempotent, returns the report."""
        if self._finalized:
            return self.report
        self._finalized = True
        for probe in self._ports.values():
            probe.finalize()
        drained = self.sim.pending() == 0
        for flow in self._flows:
            self._check_flow(flow, drained)
        return self.report

    def _check_flow(self, flow, drained: bool) -> None:
        """The per-flow quiescence checks."""
        report = self.report
        subject = repr(flow)
        now = self.sim.now
        chaos = self.sim.chaos
        data_links, credit_links = self._flow_links.get(flow.fid,
                                                        (set(), set()))
        if chaos is not None and chaos.topology_changed:
            # A flow that lived through a routing reconvergence took one
            # path before the change and another after it; the whole-run
            # set comparison below cannot distinguish that from a genuine
            # asymmetric hash, so the check is skipped (and counted) when
            # the fault plan changed the topology.  Loss/jitter/meter-only
            # plans keep it fully armed.
            data_links = credit_links = set()
            report.count("path_symmetry_skipped_chaos")
        elif chaos is not None and chaos.affected_links:
            # Links an active fault plan touched are excused: during a
            # blackhole window one direction can legitimately cross a link
            # whose mirror is dead (both orientations are excused).
            excused = chaos.affected_links
            data_links = {l for l in data_links if l not in excused}
            credit_links = {l for l in credit_links if l not in excused}
        if data_links and credit_links:
            reversed_credit = {(b, a) for (a, b) in credit_links}
            if data_links != reversed_credit:
                stray = sorted(reversed_credit - data_links)
                missing = sorted(data_links - reversed_credit)
                report.add(
                    "path-symmetry", subject, now,
                    f"credit path is not the reverse of the data path "
                    f"(§3.1): credits crossed reversed-links {stray} not on "
                    f"the data path; data links {missing} saw no credits")
        # Credit conservation holds only at quiescence: a run cut mid-flight
        # legitimately has credits on the wire.
        sent = getattr(flow, "credits_sent", None)
        if drained and sent is not None:
            injected = (chaos.injected_credit_drops(flow.fid)
                        if chaos is not None else 0)
            received = getattr(flow, "credits_received", 0)
            drops = flow.credit_drops
            accounted = received + drops + injected
            if sent != accounted:
                budget = (f" + {injected} chaos-injected" if injected else "")
                report.add(
                    "credit-conservation", subject, now,
                    f"{sent} credits sent but only {accounted} accounted "
                    f"({received} received + {drops} dropped{budget}) — "
                    f"{sent - accounted} lost silently")
        if flow.size_bytes is not None:
            if flow.completed and flow.bytes_delivered != flow.size_bytes:
                report.add(
                    "completion-exactness", subject, now,
                    f"flow completed having delivered "
                    f"{flow.bytes_delivered}B of {flow.size_bytes}B")
            elif (drained and not flow.completed
                    and getattr(flow, "_started", False)
                    and not getattr(flow, "_stopped", False)):
                report.add(
                    "completion-exactness", subject, now,
                    f"simulation drained but the flow delivered only "
                    f"{flow.bytes_delivered}B of {flow.size_bytes}B")
