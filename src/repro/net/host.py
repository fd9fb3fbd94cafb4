"""End hosts and the host credit-processing delay model."""

from __future__ import annotations

import math
from typing import Optional

from repro.net.node import Node
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.units import US


class HostDelayModel:
    """Stochastic model of host credit-processing latency (∆d_host).

    The paper's SoftNIC implementation measures a median of 0.38 µs and a
    99.99th percentile of 6.2 µs (Fig 14a).  We model that as a lognormal:
    ``median = exp(mu)`` and the p99.99 point pins sigma.  A hardware NIC is
    approximated by shrinking both parameters (the paper cites a 1.2 µs
    maximum spread for iWARP NICs).

    ``max_delay_ps`` clips the tail so the delay *spread* is bounded, which
    is what the network-calculus queue bound consumes.
    """

    def __init__(
        self,
        median_ps: int = int(0.38 * US),
        p9999_ps: int = int(6.2 * US),
        max_delay_ps: Optional[int] = None,
        rng=None,
    ):
        if median_ps <= 0 or p9999_ps <= median_ps:
            raise ValueError("need 0 < median < p99.99")
        self.median_ps = median_ps
        self.max_delay_ps = max_delay_ps if max_delay_ps is not None else int(1.05 * p9999_ps)
        self._mu = math.log(median_ps)
        z_9999 = 3.7190  # standard normal quantile at 0.9999
        self._sigma = math.log(p9999_ps / median_ps) / z_9999
        self._rng = rng
        self._scale = 1.0

    def bind(self, rng) -> None:
        self._rng = rng

    def set_scale(self, factor: float) -> None:
        """Multiply sampled delays (and the clip) by ``factor``.

        Models a host-side jitter spike — a CPU-starved SoftNIC whose
        credit-processing latency temporarily balloons (Fig 14a's tail,
        chaos ``host_jitter`` faults).  ``1.0`` restores nominal behaviour.
        The underlying RNG stream is consumed identically at every scale,
        so toggling a spike never desynchronises other streams.
        """
        if factor <= 0:
            raise ValueError("delay scale must be positive")
        self._scale = factor

    def sample(self, rng=None) -> int:
        """Draw one processing delay in picoseconds.

        ``rng`` overrides the bound stream for this draw — hosts pass their
        own per-host stream so one model instance can be shared across a
        whole network without coupling the hosts' randomness.  With neither
        a bound nor a passed stream the model is deterministic.
        """
        r = rng if rng is not None else self._rng
        if r is None:
            return int(self.median_ps * self._scale)
        value = int(r.lognormvariate(self._mu, self._sigma))
        value = min(max(value, 0), self.max_delay_ps)
        return int(value * self._scale)

    @property
    def spread_ps(self) -> int:
        """∆d_host: the worst-case minus best-case processing delay."""
        return int(self.max_delay_ps * self._scale)

    @classmethod
    def constant(cls, delay_ps: int) -> "HostDelayModel":
        """A deterministic model (zero spread) for unit tests."""
        model = cls.__new__(cls)
        model.median_ps = delay_ps
        model.max_delay_ps = delay_ps
        model._mu = 0.0
        model._sigma = 0.0
        model._rng = None
        model._scale = 1.0
        return model


class Host(Node):
    """An end host with a single NIC port.

    Packets terminate here: delivery is a direct method call on the owning
    flow.  Transports (ExpressPass, DCTCP, ...) attach per-flow objects; the
    host itself is protocol-agnostic.
    """

    def __init__(self, sim: Simulator, node_id: int, name: str = "",
                 delay_model: Optional[HostDelayModel] = None):
        super().__init__(sim, node_id, name or f"h{node_id}")
        self.delay_model = delay_model or HostDelayModel.constant(0)
        # Per-host delay stream: draws here depend only on (seed, node id),
        # never on how many *other* hosts sampled before us, so a host's
        # delays are reproducible whatever else the topology contains.
        self._delay_rng = sim.rng_for("host-delay", node_id)
        #: The one attached port, resolved as ports attach (per-packet
        #: ``nic`` reads then cost one slot load); None unless exactly one.
        self._nic = None

    def sample_delay(self) -> int:
        """One credit-processing delay from this host's own stream."""
        return self.delay_model.sample(self._delay_rng)

    def attach_port(self, port) -> None:
        super().attach_port(port)
        self._nic = port if len(self.ports) == 1 else None

    @property
    def nic(self):
        """The single NIC egress port (hosts here are single-homed)."""
        nic = self._nic
        if nic is None:
            raise RuntimeError(f"{self.name} has {len(self.ports)} ports, expected 1")
        return nic

    def receive(self, pkt: Packet, from_port) -> None:
        if pkt.hops is not None:
            pkt.hops.append(self.id)
        if pkt.dst != self.id:
            raise RuntimeError(
                f"{self.name} received packet addressed to host {pkt.dst}"
            )
        if pkt.flow is not None:
            pkt.flow.deliver(self, pkt)
        # Flow-less packets (synthetic probes, background chatter) terminate
        # here silently.

    def send(self, pkt: Packet) -> bool:
        """Hand ``pkt`` to the NIC for transmission."""
        # The cached slot; the property raises if not single-homed.
        return (self._nic or self.nic).send(pkt)
