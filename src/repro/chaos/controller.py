"""The chaos controller: compiles a FaultPlan onto the event heap and
executes it against one live network.

One controller serves one :class:`~repro.sim.engine.Simulator` (it installs
itself as ``sim.chaos``, mirroring ``sim.auditor`` / ``sim.metrics``) and
the one network it is built with.  At construction it expands the plan's
timeline and schedules every primitive action; at fire time it resolves
node names against that network — events naming nodes that do not exist
are counted in :attr:`skipped`, not fatal, so one plan can run against
many topologies.

Responsibilities beyond flipping state:

* **Accounting.**  Every packet the chaos plane eats — Gilbert–Elliott
  episode drops and routing blackholes — is charged per flow id, split
  credit/data.  The audit plane subtracts these budgets from its
  conservation checks, so an *injected* drop is not a violation while a
  *real* silent leak still is.
* **Routing-convergence delay.**  Topology changes do not reroute
  immediately: one coalesced reconvergence fires
  ``plan.reconverge_delay_ps`` after the latest change — the blackhole
  window real fabrics exhibit.
* **Path-symmetry excuses.**  Links a fault touched are recorded in
  :attr:`affected_links` (both orientations); the auditor skips them when
  comparing credit and data paths.
* **Observability.**  Each applied fault is recorded in :attr:`applied`,
  and becomes a ``repro.obs`` event and bumps chaos counters when metrics
  are attached.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Set, Tuple

from repro.chaos.gilbert import GilbertElliott
from repro.chaos.plan import FaultPlan, LossBurst
from repro.net.packet import Packet, PacketKind


class _BurstFilter:
    """Port drop-filter bound to one Gilbert–Elliott episode."""

    __slots__ = ("controller", "model", "match")

    def __init__(self, controller: "ChaosController", model: GilbertElliott,
                 match: str):
        self.controller = controller
        self.model = model
        self.match = match

    def __call__(self, pkt: Packet) -> bool:
        match = self.match
        if match == "credit":
            if not pkt.is_credit:
                return False
        elif match == "data":
            if pkt.kind != PacketKind.DATA:
                return False
        if self.model.step():
            self.controller.record_injected(pkt)
            return True
        return False


class ChaosController:
    """Executes one :class:`FaultPlan` against a simulation."""

    def __init__(self, sim, net, plan: FaultPlan):
        if sim.chaos is not None:
            raise RuntimeError("simulator already has a chaos controller attached")
        self.sim = sim
        self.net = net
        self.plan = plan
        self._nodes: Dict[str, object] = {
            node.name: node for node in net.nodes.values()}
        #: Per-fid injected-drop budgets the auditor consumes.
        self._injected_credit: Dict[int, int] = {}
        self._injected_data: Dict[int, int] = {}
        self.total_injected_credit = 0
        self.total_injected_data = 0
        self.blackholed_credit = 0
        self.blackholed_data = 0
        #: (node_id, node_id) pairs (both orientations) any fault touched.
        self.affected_links: Set[Tuple[int, int]] = set()
        #: True once any link/switch op changed the topology: flows that
        #: lived through a reconvergence straddle two paths, so the audit
        #: plane's path-symmetry set comparison no longer applies.
        self.topology_changed = False
        #: (t_ps, description) for every action actually applied.
        self.applied: List[Tuple[int, str]] = []
        #: Actions that referenced nodes absent from the network.
        self.skipped = 0
        self._active_bursts: Dict[Tuple[int, str], Tuple[object, _BurstFilter]] = {}
        self._saved_rates: Dict[int, Tuple[object, int]] = {}   # id(port) -> (port, bps)
        self._saved_delays: Dict[int, Tuple[object, object]] = {}  # id(host) -> (host, model)
        self._reconverge_event = None
        sim.chaos = self
        now = sim.now
        for t_ps, op, event, idx in plan.timeline():
            sim.schedule_at(max(t_ps, now), self._fire, op, event, idx)

    # -- action dispatch -----------------------------------------------------
    def _fire(self, op: str, event, idx: int) -> None:
        getattr(self, "_op_" + op)(event, idx)

    def _resolve(self, name: str):
        """The node named ``name``, or None + a skip if unknown."""
        node = self._nodes.get(name)
        if node is None:
            self.skipped += 1
            self._note(f"skip: no node named {name!r} in the network")
        return node

    def _note(self, message: str) -> None:
        now = self.sim.now
        self.applied.append((now, message))
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("chaos.actions").inc()
            metrics.log_event(now, f"chaos: {message}", 0)

    def _mark_link(self, a, b) -> None:
        self.affected_links.add((a.id, b.id))
        self.affected_links.add((b.id, a.id))

    def _schedule_reconverge(self) -> None:
        """(Re)start the routing-convergence timer: routing notices the
        *latest* change ``reconverge_delay_ps`` after it."""
        self.topology_changed = True
        if self._reconverge_event is not None:
            self._reconverge_event.cancel()
        self._reconverge_event = self.sim.schedule(
            self.plan.reconverge_delay_ps, self._do_reconverge)

    def _do_reconverge(self) -> None:
        self._reconverge_event = None
        self.net.reconverge()
        self._note("routing reconverged")

    # -- link faults ---------------------------------------------------------
    def _op_link_down(self, ev, idx: int) -> None:
        a = self._resolve(ev.a)
        b = self._resolve(ev.b)
        if a is None or b is None:
            return
        direction = getattr(ev, "direction", "both")
        self.net.set_link_state(a, b, up=False, direction=direction)
        self._mark_link(a, b)
        self._note(f"link down {ev.a}<->{ev.b} ({direction})")
        self._schedule_reconverge()

    def _op_link_up(self, ev, idx: int) -> None:
        a = self._resolve(ev.a)
        b = self._resolve(ev.b)
        if a is None or b is None:
            return
        self.net.set_link_state(a, b, up=True)
        self._mark_link(a, b)
        self._note(f"link up {ev.a}<->{ev.b}")
        self._schedule_reconverge()

    def _op_switch_down(self, ev, idx: int) -> None:
        node = self._resolve(ev.node)
        if node is None:
            return
        for peer_id in node.ports:
            peer = self.net.nodes[peer_id]
            self.net.set_link_state(node, peer, up=False)
            self._mark_link(node, peer)
        self._note(f"switch blackout {ev.node} ({len(node.ports)} links)")
        self._schedule_reconverge()

    def _op_switch_up(self, ev, idx: int) -> None:
        node = self._resolve(ev.node)
        if node is None:
            return
        for peer_id in node.ports:
            peer = self.net.nodes[peer_id]
            self.net.set_link_state(node, peer, up=True)
        self._note(f"switch recovered {ev.node}")
        self._schedule_reconverge()

    # -- loss episodes -------------------------------------------------------
    def _burst_targets(self, ev: LossBurst):
        a = self._resolve(ev.a)
        b = self._resolve(ev.b)
        if a is None or b is None:
            return ()
        targets = []
        if ev.direction in ("a->b", "both"):
            targets.append(("fwd", a.ports.get(b.id)))
        if ev.direction in ("b->a", "both"):
            targets.append(("rev", b.ports.get(a.id)))
        return [(tag, port) for tag, port in targets if port is not None]

    def _op_burst_start(self, ev: LossBurst, idx: int) -> None:
        for tag, port in self._burst_targets(ev):
            key = (idx, tag)
            if key in self._active_bursts:  # overlapping duplicate in a plan
                continue
            # The stream name folds in the plan seed and the event's plan
            # position: reseeding the plan reshuffles drops, nothing else.
            rng = self.sim.rng(f"chaos-ge-{self.plan.seed}-{idx}-{tag}")
            model = GilbertElliott(rng, ev.p_enter_bad, ev.p_exit_bad,
                                   ev.loss_good, ev.loss_bad)
            flt = _BurstFilter(self, model, ev.match)
            port.add_drop_filter(flt)
            self._active_bursts[key] = (port, flt)
            self._mark_link(port.node, port.peer)
            self._note(f"loss burst on {port.name} "
                       f"(match={ev.match}, E[loss]="
                       f"{model.expected_loss_rate:.3f})")

    def _op_burst_end(self, ev: LossBurst, idx: int) -> None:
        for tag in ("fwd", "rev"):
            entry = self._active_bursts.pop((idx, tag), None)
            if entry is None:
                continue
            port, flt = entry
            port.remove_drop_filter(flt)
            self._note(f"loss burst over on {port.name} "
                       f"({flt.model.drops}/{flt.model.steps} dropped)")

    # -- credit-meter misconfiguration --------------------------------------
    def _op_meter_set(self, ev, idx: int) -> None:
        a = self._resolve(ev.a)
        b = self._resolve(ev.b)
        if a is None or b is None:
            return
        port = a.ports.get(b.id)
        if port is None:
            self.skipped += 1
            self._note(f"skip: no link {ev.a}->{ev.b}")
            return
        bucket = port.credit_bucket
        self._saved_rates.setdefault(id(port), (port, bucket.rate_bps))
        new_rate = max(1, int(bucket.rate_bps * ev.factor))
        bucket.set_rate(new_rate, self.sim.now)
        self._notify_meter(port, new_rate)
        self._note(f"credit meter on {port.name} x{ev.factor:g} "
                   f"-> {new_rate / 1e9:.3f} Gbps")

    def _op_meter_restore(self, ev, idx: int) -> None:
        a = self._resolve(ev.a)
        b = self._resolve(ev.b)
        if a is None or b is None:
            return
        port = a.ports.get(b.id)
        if port is None:
            return
        saved = self._saved_rates.pop(id(port), None)
        if saved is None:
            return
        _, rate = saved
        port.credit_bucket.set_rate(rate, self.sim.now)
        self._notify_meter(port, rate)
        self._note(f"credit meter restored on {port.name}")

    def _notify_meter(self, port, rate_bps: int) -> None:
        """Keep the audit plane's independent rate mirror tracking the
        *configured* rate: the misconfiguration is an injected fault (and is
        reported as such), while transmitting faster than even the
        misconfigured meter allows remains a violation."""
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.on_credit_rate_change(port, rate_bps)

    # -- host jitter ---------------------------------------------------------
    def _op_jitter_set(self, ev, idx: int) -> None:
        host = self._resolve(ev.host)
        if host is None:
            return
        # Delay models may be shared across hosts: spike a per-host copy
        # (same RNG stream, so other streams never shift).
        self._saved_delays.setdefault(id(host), (host, host.delay_model))
        spiked = copy.copy(host.delay_model)
        spiked.set_scale(ev.factor)
        host.delay_model = spiked
        self._note(f"host jitter x{ev.factor:g} on {ev.host}")

    def _op_jitter_restore(self, ev, idx: int) -> None:
        host = self._resolve(ev.host)
        if host is None:
            return
        saved = self._saved_delays.pop(id(host), None)
        if saved is None:
            return
        host.delay_model = saved[1]
        self._note(f"host jitter restored on {ev.host}")

    # -- drop accounting (consumed by repro.audit) ---------------------------
    def record_injected(self, pkt: Packet) -> None:
        """Charge one chaos-eaten packet to its flow's injected budget."""
        fid = pkt.flow.fid if pkt.flow is not None else 0
        if pkt.is_credit:
            self._injected_credit[fid] = self._injected_credit.get(fid, 0) + 1
            self.total_injected_credit += 1
        else:
            self._injected_data[fid] = self._injected_data.get(fid, 0) + 1
            self.total_injected_data += 1
        metrics = self.sim.metrics
        if metrics is not None:
            kind = "credit" if pkt.is_credit else "data"
            metrics.counter(f"chaos.injected_{kind}_drops").inc()

    def record_blackhole(self, pkt: Packet, switch) -> None:
        """A routed-into-nowhere packet (blackout window): account it so
        conservation still closes, attributed to the chaos plane."""
        if pkt.is_credit:
            self.blackholed_credit += 1
        else:
            self.blackholed_data += 1
        self.record_injected(pkt)

    def injected_credit_drops(self, fid: int) -> int:
        return self._injected_credit.get(fid, 0)

    def injected_data_drops(self, fid: int) -> int:
        return self._injected_data.get(fid, 0)

    # -- reporting -----------------------------------------------------------
    def summary(self) -> dict:
        return {
            "plan": self.plan.name,
            "seed": self.plan.seed,
            "applied": len(self.applied),
            "skipped": self.skipped,
            "injected_credit_drops": self.total_injected_credit,
            "injected_data_drops": self.total_injected_data,
            "blackholed_credit": self.blackholed_credit,
            "blackholed_data": self.blackholed_data,
            "affected_links": len(self.affected_links) // 2,
        }
