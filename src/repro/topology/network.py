"""The Network container: nodes, links, and routing for one simulation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.net.host import Host, HostDelayModel
from repro.net.link import connect
from repro.net.port import Port
from repro.net.routing import build_ecmp_tables
from repro.net.switch import Switch
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, KB, US


@dataclass(frozen=True)
class LinkSpec:
    """Per-link configuration.

    Defaults follow the paper's simulation setup: 10 Gbit/s links, 4 µs
    propagation delay, shallow shared buffers (the paper uses 250 MTUs ≈
    384.5 KB per port at 10 G), and 8-credit carved queues.
    """

    rate_bps: int = 10 * GBPS
    prop_delay_ps: int = 4 * US
    data_capacity_bytes: int = 250 * 1538  # 250 MTUs, paper §6.3
    credit_capacity_pkts: int = 8
    ecn_threshold_bytes: Optional[int] = None

    def scaled_buffer(self, factor: float) -> "LinkSpec":
        """A copy with the data buffer scaled by ``factor``."""
        return replace(self, data_capacity_bytes=int(self.data_capacity_bytes * factor))


class Network:
    """Owns the simulator's nodes and wires routing together.

    Typical use::

        net = Network(sim)
        h0, h1 = net.add_host(), net.add_host()
        sw = net.add_switch()
        net.link(h0, sw, LinkSpec())
        net.link(h1, sw, LinkSpec())
        net.finalize()
    """

    def __init__(self, sim: Simulator, host_delay: Optional[HostDelayModel] = None):
        self.sim = sim
        self.nodes: Dict[int, object] = {}
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.ports: List[Port] = []
        self._next_id = 0
        self._host_delay = host_delay
        self._finalized = False

    # -- construction -------------------------------------------------------
    def add_host(self, name: str = "", delay_model: Optional[HostDelayModel] = None) -> Host:
        # The delay model is stateless apart from its RNG stream (shared and
        # owned by the simulator), so hosts can safely share one instance.
        model = delay_model if delay_model is not None else self._host_delay
        host = Host(self.sim, self._next_id, name, model)
        self._next_id += 1
        self.nodes[host.id] = host
        self.hosts.append(host)
        return host

    def add_switch(self, name: str = "") -> Switch:
        switch = Switch(self.sim, self._next_id, name)
        self._next_id += 1
        self.nodes[switch.id] = switch
        self.switches.append(switch)
        return switch

    def link(self, a, b, spec: LinkSpec) -> Tuple[Port, Port]:
        ab, ba = connect(
            self.sim, a, b,
            rate_bps=spec.rate_bps,
            prop_delay_ps=spec.prop_delay_ps,
            data_capacity_bytes=spec.data_capacity_bytes,
            credit_capacity_pkts=spec.credit_capacity_pkts,
            ecn_threshold_bytes=spec.ecn_threshold_bytes,
        )
        self.ports.extend((ab, ba))
        return ab, ba

    def finalize(self) -> None:
        """Build routing tables.  Call after all links are in place.

        If runtime auditing is active (``REPRO_AUDIT=1``, ``--audit``, or an
        open :func:`repro.audit.capture` scope), this also attaches the
        invariant observers to every port; likewise metrics
        (``REPRO_METRICS=1``, ``--metrics``, :func:`repro.obs.capture`)
        attaches the simulator's :class:`~repro.obs.MetricsRegistry`.  Both
        are no-ops otherwise.
        """
        build_ecmp_tables(self.nodes, [h.id for h in self.hosts])
        self._finalized = True
        from repro.runtime import probes
        probes.attach_network(self)

    # -- link failures (§3.1: "exclude links that fail unidirectionally") ----
    def fail_link(self, a, b, direction: str = "both") -> None:
        """Take the a<->b link down and reroute around it.

        ``direction`` may be "both", "a->b", or "b->a"; routing excludes the
        link in every case (a unidirectional failure breaks path symmetry,
        so the paper removes such links entirely).  Packets already on the
        wire still arrive; packets queued at a down port are not flushed but
        no new ones are accepted.
        """
        self.set_link_state(a, b, up=False, direction=direction)
        self.reconverge()

    def restore_link(self, a, b) -> None:
        """Bring the a<->b link back up (both directions) and reroute."""
        self.set_link_state(a, b, up=True)
        self.reconverge()

    def set_link_state(self, a, b, up: bool, direction: str = "both") -> None:
        """Flip the administrative state of the a<->b link WITHOUT rerouting.

        Routing still points at the link until :meth:`reconverge` runs —
        the window in which packets blackhole into the down port.  The
        chaos plane uses this split to model routing-convergence delay;
        :meth:`fail_link` / :meth:`restore_link` wrap it with an immediate
        reconvergence for callers that don't care about the window.
        """
        fwd = a.ports.get(b.id)
        rev = b.ports.get(a.id)
        if fwd is None or rev is None:
            raise ValueError(f"no link between {a.name} and {b.name}")
        if direction not in ("both", "a->b", "b->a"):
            raise ValueError(f"bad direction {direction!r}")
        if direction in ("both", "a->b"):
            fwd.up = up
        if direction in ("both", "b->a"):
            rev.up = up

    def reconverge(self) -> None:
        """Rebuild ECMP tables from current link states (routing has
        'noticed' every failure and repair applied so far)."""
        build_ecmp_tables(self.nodes, [h.id for h in self.hosts])

    # -- lookups --------------------------------------------------------------
    def port_between(self, a, b) -> Port:
        """The egress port on ``a`` facing ``b``."""
        return a.ports[b.id]

    def all_data_queues(self):
        """(port, data queue) pairs across the network, for queue audits."""
        return [(p, p.data_queue) for p in self.ports]

    def max_data_queue_bytes(self) -> int:
        """Largest data-queue occupancy ever observed on any port."""
        return max((p.data_queue.stats.max_bytes for p in self.ports), default=0)

    def total_data_drops(self) -> int:
        return sum(p.data_queue.stats.dropped for p in self.ports)

    def total_credit_drops(self) -> int:
        return sum(p.credit_queue.stats.dropped for p in self.ports)
