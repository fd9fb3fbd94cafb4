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

from repro.audit.report import AuditReport, merge_summaries
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
        #: When True, :meth:`finalize` skips the per-flow quiescence checks.
        #: Sharded execution sets this in each worker: a single shard sees
        #: only its own half of a flow's counters, so the checks run once,
        #: centrally, over merged :meth:`flow_accounts`.
        self.defer_flow_checks = False
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
        if not self.defer_flow_checks:
            for flow in self._flows:
                self._check_flow(flow, drained)
        return self.report

    def _flow_account(self, flow) -> dict:
        """One flow's audited counters as plain data.

        The quiescence checks consume these accounts rather than live flow
        objects, so a sharded run can ship each replica's account across
        process boundaries, merge them counter-wise, and run the identical
        checks (:func:`check_flow_account`) on the reconstructed totals.
        """
        chaos = self.sim.chaos
        data_links, credit_links = self._flow_links.get(flow.fid,
                                                        (set(), set()))
        return {
            "fid": flow.fid,
            "subject": repr(flow),
            "data_links": sorted(data_links),
            "credit_links": sorted(credit_links),
            "credits_sent": getattr(flow, "credits_sent", None),
            "credits_received": getattr(flow, "credits_received", 0),
            "credit_drops": flow.credit_drops,
            "injected_credit_drops": (chaos.injected_credit_drops(flow.fid)
                                      if chaos is not None else 0),
            "size_bytes": flow.size_bytes,
            "bytes_delivered": flow.bytes_delivered,
            "completed": flow.completed,
            "started": getattr(flow, "_started", False),
            "stopped": getattr(flow, "_stopped", False),
        }

    def flow_accounts(self) -> List[dict]:
        """Accounts for every registered flow, in registration order."""
        return [self._flow_account(flow) for flow in self._flows]

    def shard_account(self) -> dict:
        """What a shard worker ships beside its summary so the coordinator
        can run the deferred per-flow checks over merged totals
        (:func:`merge_shard_summaries`): every flow replica's account,
        tagged with whether this shard owns the flow's destination, the
        fault plane's topology excuses, and the quiescence facts."""
        shard = self.sim.shard
        chaos = self.sim.chaos
        accounts = self.flow_accounts()
        for flow, account in zip(self._flows, accounts):
            account["dst_owned"] = shard.owns(flow.dst.id)
        return {
            "flow_accounts": accounts,
            "chaos": None if chaos is None else {
                "topology_changed": chaos.topology_changed,
                "affected_links": sorted(chaos.affected_links),
            },
            "now": self.sim.now,
            "drained": self.sim.pending() == 0,
        }

    def _check_flow(self, flow, drained: bool) -> None:
        chaos = self.sim.chaos
        check_flow_account(
            self.report, self._flow_account(flow), drained, self.sim.now,
            topology_changed=chaos is not None and chaos.topology_changed,
            affected_links=(chaos.affected_links if chaos is not None
                            else frozenset()))


def check_flow_account(report: AuditReport, account: dict, drained: bool,
                       now: int, topology_changed: bool = False,
                       affected_links=frozenset()) -> None:
    """The per-flow quiescence checks, over a plain-data account.

    Single source of truth for serial (:meth:`NetworkAuditor._check_flow`)
    and sharded (merged-account) auditing — both paths produce identical
    invariant names and messages for identical totals.
    """
    subject = account["subject"]
    data_links = {tuple(link) for link in account["data_links"]}
    credit_links = {tuple(link) for link in account["credit_links"]}
    if topology_changed:
        # A flow that lived through a routing reconvergence took one
        # path before the change and another after it; the whole-run
        # set comparison below cannot distinguish that from a genuine
        # asymmetric hash, so the check is skipped (and counted) when
        # the fault plan changed the topology.  Loss/jitter/meter-only
        # plans keep it fully armed.
        data_links = credit_links = set()
        report.count("path_symmetry_skipped_chaos")
    elif data_links and credit_links:
        # Links an active fault plan touched are excused: during a
        # blackhole window one direction can legitimately cross a link
        # whose mirror is dead (both orientations are excused).
        if affected_links:
            data_links = {l for l in data_links if l not in affected_links}
            credit_links = {l for l in credit_links
                            if l not in affected_links}
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
    sent = account["credits_sent"]
    if drained and sent is not None:
        injected = account["injected_credit_drops"]
        received = account["credits_received"]
        drops = account["credit_drops"]
        accounted = received + drops + injected
        if sent != accounted:
            budget = (f" + {injected} chaos-injected" if injected else "")
            report.add(
                "credit-conservation", subject, now,
                f"{sent} credits sent but only {accounted} accounted "
                f"({received} received + "
                f"{drops} dropped{budget}) — "
                f"{sent - accounted} lost silently")
    if account["size_bytes"] is not None:
        if (account["completed"]
                and account["bytes_delivered"] != account["size_bytes"]):
            report.add(
                "completion-exactness", subject, now,
                f"flow completed having delivered "
                f"{account['bytes_delivered']}B of {account['size_bytes']}B")
        elif (drained and not account["completed"]
                and account["started"]
                and not account["stopped"]):
            report.add(
                "completion-exactness", subject, now,
                f"simulation drained but the flow delivered only "
                f"{account['bytes_delivered']}B of {account['size_bytes']}B")


def merge_shard_summaries(payloads: List[dict]) -> dict:
    """One sharded simulation's verdict from its per-shard audit payloads.

    Each worker audits its own ports and defers the per-flow quiescence
    checks (a shard sees only its half of a flow's counters); here the
    replicas' accounts are merged counter-wise and the identical checks run
    once, centrally, with the fault plane's excuses unioned across shards.
    """
    shards = [p["shard"] for p in payloads if "shard" in p]
    by_fid: Dict[int, List[dict]] = {}
    for shard in shards:
        for account in shard["flow_accounts"]:
            by_fid.setdefault(account["fid"], []).append(account)
    chaos_infos = [shard["chaos"] for shard in shards]
    topology_changed = any(c["topology_changed"] for c in chaos_infos if c)
    affected = set()
    for c in chaos_infos:
        if c:
            affected.update(tuple(link) for link in c["affected_links"])
    now = max((shard["now"] for shard in shards), default=0)
    drained = all(shard["drained"] for shard in shards)
    report = AuditReport()
    for fid in sorted(by_fid):
        check_flow_account(report, _merge_flow_account(by_fid[fid]),
                           drained, now,
                           topology_changed=topology_changed,
                           affected_links=affected)
    merged = merge_summaries(payloads + [report.summary()])
    merged["runs"] = 1  # one simulation, not n_shards + 1
    return merged


def _merge_flow_account(accounts: List[dict]) -> dict:
    # Each counter increments in exactly one shard (delivery at the dst
    # owner, credit receipt at the src owner, drops wherever the dropping
    # port lives) while every other replica stays at zero — so plain sums
    # reconstruct the serial totals.  The subject string comes from the
    # dst-owner replica, whose delivery-side state matches serial.
    base = next((a for a in accounts if a.get("dst_owned")), accounts[0])
    merged = dict(base)
    for key in ("data_links", "credit_links"):
        merged[key] = sorted({tuple(link) for a in accounts
                              for link in a[key]})
    for key in ("bytes_delivered", "credits_received", "credit_drops",
                "injected_credit_drops"):
        merged[key] = sum(a[key] for a in accounts)
    sent = [a["credits_sent"] for a in accounts
            if a["credits_sent"] is not None]
    merged["credits_sent"] = sum(sent) if sent else None
    for key in ("completed", "started", "stopped"):
        merged[key] = any(a[key] for a in accounts)
    return merged
