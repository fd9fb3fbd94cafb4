"""The fluid network model: rates, water-filling, queue integrators.

State is three arrays — per-flow rate, per-link queue, per-flow delivered
bytes — advanced in fixed RTT-sized steps:

1. **Targets**: max-min fair shares over the flow/link incidence
   (water-filling), against each link's *achievable* capacity
   (``capacity × Dynamics.utilization`` — credit overhead for ExpressPass,
   ECN headroom for DCTCP/HULL, and so on).  They depend on the active
   flow set, routes and capacities only, so they are recomputed when a
   flow starts, not every step.
2. **Relaxation**: each flow moves a ``gain_per_rtt`` fraction of the way
   from its current rate to its target — the first-order stand-in for the
   protocol's control loop (feedback aggregation, AIMD, rate updates).
3. **Queues**: each link integrates ``max(0, inflow − capacity)`` into a
   byte backlog and drains the excess; on top of that backlog a saturated
   link reports the protocol's *standing* queue (``queue_bytes``: DCTCP's
   marking threshold, the loss-based buffer fill, ExpressPass's sub-MTU
   credit jitter).  Credit-throttled protocols additionally cap aggregate
   arrivals at capacity, which is why their dynamic backlog stays ~0 — the
   fluid expression of "credits never admit more than the link can carry".

The model is deterministic: no RNG, no event ordering, so a fluid cell is a
pure function of its arguments (the same property the result cache relies
on for packet cells).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: One MTU in bytes — the granularity floor for standing-queue estimates.
_MTU = 1_500


@dataclass(frozen=True)
class Dynamics:
    """Per-protocol constants driving the fluid evolution.

    ``utilization``: achievable fraction of raw link capacity (data
    goodput / line rate at saturation).  ``gain_per_rtt``: first-order
    convergence gain per RTT step (1 = jump straight to target).
    ``queue_bytes``: standing queue at a saturated bottleneck.
    ``start_fraction``: initial rate as a fraction of the fair share
    (ExpressPass's ``w_init``, slow-start's first windows).
    ``credit_throttled``: arrivals are capped at link capacity (credit
    scheduling), so dynamic backlog cannot build.
    """

    utilization: float
    gain_per_rtt: float
    queue_bytes: int
    start_fraction: float = 0.05
    credit_throttled: bool = False


#: Fluid dynamics for every packet-backend transport.  ``utilization`` and
#: ``queue_bytes`` are calibrated against the packet simulator's persistent
#: dumbbell (tests/test_fluid.py pins the agreement and its tolerances);
#: ``gain_per_rtt`` reflects each scheme's convergence-speed class (Fig 16:
#: ExpressPass/RCP a few RTTs, DCTCP hundreds).
PROTOCOL_DYNAMICS: Dict[str, Dynamics] = {
    "expresspass": Dynamics(utilization=0.92, gain_per_rtt=0.35,
                            queue_bytes=5 * _MTU, start_fraction=1 / 16,
                            credit_throttled=True),
    "expresspass-naive": Dynamics(utilization=0.92, gain_per_rtt=0.5,
                                  queue_bytes=5 * _MTU, start_fraction=0.5,
                                  credit_throttled=True),
    "dctcp": Dynamics(utilization=0.97, gain_per_rtt=0.04,
                      queue_bytes=155 * _MTU, start_fraction=0.02),
    "rcp": Dynamics(utilization=0.90, gain_per_rtt=0.45,
                    queue_bytes=250 * _MTU, start_fraction=0.1),
    "hull": Dynamics(utilization=0.88, gain_per_rtt=0.04,
                     queue_bytes=4 * _MTU, start_fraction=0.02),
    "dx": Dynamics(utilization=0.93, gain_per_rtt=0.08,
                   queue_bytes=6 * _MTU, start_fraction=0.02),
    "reno": Dynamics(utilization=0.97, gain_per_rtt=0.02,
                     queue_bytes=150 * _MTU, start_fraction=0.02),
    "cubic": Dynamics(utilization=0.97, gain_per_rtt=0.03,
                      queue_bytes=150 * _MTU, start_fraction=0.02),
    "ideal": Dynamics(utilization=1.0, gain_per_rtt=1.0,
                      queue_bytes=0, start_fraction=1.0),
    "dcqcn": Dynamics(utilization=0.94, gain_per_rtt=0.06,
                      queue_bytes=30 * _MTU, start_fraction=0.05),
    "timely": Dynamics(utilization=0.93, gain_per_rtt=0.06,
                       queue_bytes=25 * _MTU, start_fraction=0.05),
}


@dataclass
class FluidLink:
    """A capacity with a byte backlog (no per-packet queue)."""

    capacity_bps: float
    queue_bytes: float = 0.0
    max_queue_bytes: float = 0.0


@dataclass
class FluidFlow:
    """A rate on a route (tuple of link indices; empty = unconstrained)."""

    route: Tuple[int, ...]
    rate_bps: float = 0.0
    delivered_bytes: float = 0.0
    start_ps: int = 0


class FluidNetwork:
    """Flows over links, advanced one RTT per :meth:`step`.

    The fair-share targets are a function of the active flow set, the
    routes and the capacities only, so they are recomputed when ``now_ps``
    crosses a flow's ``start_ps`` — never in between.  That memo is sound
    because the structure it depends on is frozen here: capacities, routes
    and start times are copied out of the ``links``/``flows`` passed in
    (and the route indices validated), so editing those objects afterwards
    cannot reach the network.  Their *state* — ``rate_bps``,
    ``delivered_bytes``, ``queue_bytes``, ``max_queue_bytes`` — stays on
    the objects, read and written every step.
    """

    def __init__(self, links: Sequence[FluidLink], flows: Sequence[FluidFlow],
                 dynamics: Dynamics, rtt_ps: int):
        if rtt_ps <= 0:
            raise ValueError(f"rtt_ps must be positive, got {rtt_ps}")
        self.links = tuple(links)
        self.flows = tuple(flows)
        self.dynamics = dynamics
        self.rtt_ps = rtt_ps
        self.now_ps = 0
        self._capacities = tuple(link.capacity_bps for link in self.links)
        self._routes = tuple(tuple(flow.route) for flow in self.flows)
        for idx, route in enumerate(self._routes):
            for l in route:
                if not 0 <= l < len(self.links):
                    raise ValueError(
                        f"flow {idx} routes over link {l}; the fabric has "
                        f"links 0..{len(self.links) - 1}")
        self._starts = tuple(flow.start_ps for flow in self.flows)
        #: The next ``start_ps`` boundary ``now_ps`` has yet to cross (None
        #: once every flow is admitted: the targets never change again).
        self._next_start_ps: Optional[int] = min(self._starts, default=None)
        #: (flow, route, target) per admitted flow, in flow-index order.
        self._active: List[Tuple[FluidFlow, Tuple[int, ...], float]] = []

    # -- fair-share targets ------------------------------------------------
    def _weights(self, active: List[int],
                 users: List[List[int]]) -> Dict[int, float]:
        """Per-flow water-filling weights.

        Plain max-min for window/rate protocols (weight 1).  For
        credit-throttled protocols, a flow crossing ``c`` *contended* links
        is beaten down to weight ``0.5**c`` (c >= 2): every extra
        credit-throttled hop drops roughly half the surviving credits, the
        multi-bottleneck penalty the ExpressPass paper measures on the
        parking lot.  Calibrated against the packet backend in
        ``tests/test_fluid.py``.
        """
        if not self.dynamics.credit_throttled:
            return {idx: 1.0 for idx in active}
        contended = {l for l, flow_ids in enumerate(users)
                     if len(flow_ids) >= 2}
        weights = {}
        for idx in active:
            c = sum(1 for l in self._routes[idx] if l in contended)
            weights[idx] = 0.5 ** c if c >= 2 else 1.0
        return weights

    def max_min_shares(self, active: List[int]) -> List[float]:
        """Water-filling: the (weighted) max-min rate for each active flow.

        Classic progressive filling over achievable capacities: repeatedly
        saturate the tightest link, freeze its flows at their weighted
        split of its remaining capacity, remove it, repeat.  O(links ×
        flows) per freeze round, which is why :meth:`step` calls it only
        when the active set changes.
        """
        util = self.dynamics.utilization
        routes = self._routes
        remaining = [cap * util for cap in self._capacities]
        users: List[List[int]] = [[] for _ in self._capacities]
        for idx in active:
            for l in routes[idx]:
                users[l].append(idx)
        weights = self._weights(active, users)
        share = {idx: float("inf") for idx in active}
        unfrozen = set(active)
        while unfrozen:
            tight_link = None
            tight_unit = None
            for l, flow_ids in enumerate(users):
                live_w = sum(weights[i] for i in flow_ids if i in unfrozen)
                if not live_w:
                    continue
                unit = remaining[l] / live_w
                if tight_unit is None or unit < tight_unit:
                    tight_unit = unit
                    tight_link = l
            if tight_link is None:
                # Remaining flows traverse no constrained link: cap at the
                # fastest link so "unconstrained" still means line rate.
                top = max(self._capacities, default=0.0) * util
                for idx in unfrozen:
                    share[idx] = top
                break
            frozen = [i for i in users[tight_link] if i in unfrozen]
            for idx in frozen:
                share[idx] = tight_unit * weights[idx]
                unfrozen.discard(idx)
                for l in routes[idx]:
                    remaining[l] = max(0.0, remaining[l] - share[idx])
        return [share[idx] for idx in active]

    def _retarget(self) -> None:
        """Admit every flow whose start has passed and water-fill the new
        active set."""
        now_ps = self.now_ps
        active = [idx for idx, start_ps in enumerate(self._starts)
                  if start_ps <= now_ps]
        targets = self.max_min_shares(active)
        self._active = [(self.flows[idx], self._routes[idx], target)
                        for idx, target in zip(active, targets)]
        self._next_start_ps = min(
            (start_ps for start_ps in self._starts if start_ps > now_ps),
            default=None)

    # -- evolution ---------------------------------------------------------
    def step(self) -> None:
        """Advance one RTT: retarget (at a start boundary), relax, deliver,
        integrate queues.

        Every float below is produced by the same operations on the same
        operands in the same order as a water-filling on every step would
        give — ``tests/test_fluid.py`` compares the two with ``==`` — so
        keep the accumulation order (per-link inflow adds flows in index
        order) and do not re-associate or hoist a product.
        """
        boundary = self._next_start_ps
        if boundary is not None and boundary <= self.now_ps:
            self._retarget()
        dt_s = self.rtt_ps * 1e-12
        dyn = self.dynamics
        gain = min(1.0, dyn.gain_per_rtt)
        start_fraction = dyn.start_fraction
        inflow = [0.0] * len(self.links)
        for flow, route, target in self._active:
            rate = flow.rate_bps
            if rate == 0.0:
                rate = start_fraction * target
            rate += gain * (target - rate)
            flow.rate_bps = rate
            for l in route:
                inflow[l] += rate
            flow.delivered_bytes += rate * dt_s / 8

        # Credit throttling caps admission at capacity.
        throttled = dyn.credit_throttled
        standing_bytes = dyn.queue_bytes
        for link, cap, arriving in zip(self.links, self._capacities, inflow):
            # A saturated link carries the protocol's standing queue on top
            # of any transient backlog (sub-RTT burstiness the rate model
            # integrates away).
            standing = standing_bytes if arriving >= 0.5 * cap else 0.0
            if throttled and arriving > cap:
                arriving = cap
            queue = link.queue_bytes + (arriving - cap) * dt_s / 8
            if not queue > 0.0:
                queue = 0.0
            link.queue_bytes = queue
            peak = queue + standing
            if peak > link.max_queue_bytes:
                link.max_queue_bytes = peak
        self.now_ps += self.rtt_ps

    def run(self, until_ps: int,
            sample_every_ps: Optional[int] = None,
            samples: Optional[List[float]] = None) -> None:
        """Step to ``until_ps``; optionally record total delivered bytes
        every ``sample_every_ps`` (bin edges, like the packet sampler)."""
        if sample_every_ps and samples is None:
            raise ValueError(
                "run(sample_every_ps=...) needs a samples list to append to")
        next_sample = self.now_ps if sample_every_ps else None
        while self.now_ps < until_ps:
            if next_sample is not None and self.now_ps >= next_sample:
                samples.append(sum(f.delivered_bytes for f in self.flows))
                next_sample += sample_every_ps
            self.step()
        if next_sample is not None:
            samples.append(sum(f.delivered_bytes for f in self.flows))

    def max_queue_bytes(self) -> float:
        return max((link.max_queue_bytes for link in self.links), default=0.0)


__all__ = ["Dynamics", "FluidFlow", "FluidLink", "FluidNetwork",
           "PROTOCOL_DYNAMICS"]
