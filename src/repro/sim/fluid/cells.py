"""Fluid cell functions: the picklable units a ``backend: fluid`` cell runs.

:func:`run_fluid` mirrors :func:`repro.scenarios.cells.run_persistent` —
same signature, same row keys, same topology capacity semantics — so the
matrix report, ranking, and figure plumbing read fluid and packet rows off
one shape.  The extra ``backend: "fluid"`` row key is the fluid tell; the
packet rows' family columns (the parking lot's ``min_link_utilization``,
the multi-bottleneck's ``flow0_gbps``) read per-port and per-flow state
the fluid model does not keep, so fluid rows carry neither.

:func:`fluid_join_convergence` is Fig 16's trend mode (a second flow joins
a saturated link; how many RTTs to fair share) and :func:`fluid_fct_point`
is Fig 18's (flow-level processor sharing with (α, w_init) ramp dynamics).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.sim.fluid.model import (
    Dynamics,
    FluidFlow,
    FluidLink,
    FluidNetwork,
    PROTOCOL_DYNAMICS,
)
from repro.sim.units import GBPS, MS, US


def _dynamics(protocol: str, ep_profile: str = "default") -> Dynamics:
    if protocol not in PROTOCOL_DYNAMICS:
        raise ValueError(f"no fluid dynamics for protocol {protocol!r}; "
                         f"choose from {sorted(PROTOCOL_DYNAMICS)}")
    dyn = PROTOCOL_DYNAMICS[protocol]
    if protocol.startswith("expresspass") and ep_profile == "realistic":
        # The realistic profile runs α = w_init = 1/16 aggregation: slower
        # individual ramp, same steady state.
        dyn = Dynamics(utilization=dyn.utilization,
                       gain_per_rtt=dyn.gain_per_rtt / 2,
                       queue_bytes=dyn.queue_bytes,
                       start_fraction=1 / 16,
                       credit_throttled=True)
    return dyn


def _fluid_fabric(topology: str, n_flows: int, rate_bps: int,
                  topo_params: dict,
                  ) -> Tuple[List[FluidLink], List[Tuple[int, ...]], int]:
    """(links, routes, capacity_bps) mirroring ``_persistent_fabric``.

    Capacity denominators match the packet cells exactly: dumbbell and
    multi-bottleneck report against one contended link, parking lot against
    the chain sum, star and fat tree against per-pair edge capacity.
    """
    if topology == "dumbbell":
        links = [FluidLink(rate_bps)]
        routes = [(0,)] * n_flows
        return links, routes, rate_bps
    if topology == "single_switch":
        # Non-blocking for the pairing the packet cells use: every pair
        # rides its own edge links, so each flow is capped at line rate.
        links = [FluidLink(rate_bps) for _ in range(n_flows)]
        routes = [(i,) for i in range(n_flows)]
        return links, routes, n_flows * rate_bps
    if topology == "fat_tree":
        # The packet fabric hashes flows onto k/2 uplinks per ToR; with the
        # inter-pod pairing the cells use, same-ToR flows deterministically
        # collide onto a shared path (measured: aggregate goodput equals
        # one fair-shared uplink per source ToR, robust across seeds).  The
        # fluid fabric models that *average* collision capacity — one
        # shared link per group of k/2 consecutive flows — not the
        # per-flow hash outcome, so fairness agreement is loose here
        # (tests/test_fluid.py declares the tolerance).
        half = max(1, int(topo_params.get("k", 4)) // 2)
        n_groups = math.ceil(n_flows / half)
        links = [FluidLink(rate_bps) for _ in range(n_groups)]
        routes = [(i // half,) for i in range(n_flows)]
        return links, routes, n_flows * rate_bps
    if topology == "parking_lot":
        links = [FluidLink(rate_bps) for _ in range(n_flows - 1)]
        routes = [tuple(range(n_flows - 1))]
        routes += [(i,) for i in range(n_flows - 1)]
        return links, routes, (n_flows - 1) * rate_bps
    if topology == "multi_bottleneck":
        links = [FluidLink(rate_bps) for _ in range(n_flows - 1)]
        routes = [tuple(range(n_flows - 1))]
        routes += [(i,) for i in range(n_flows - 1)]
        return links, routes, rate_bps
    raise ValueError(f"unknown topology kind {topology!r}")


def run_fluid(
    protocol: str,
    n_flows: int,
    topology: str = "dumbbell",
    topo_params: Optional[dict] = None,
    rate_bps: int = 10 * GBPS,
    prop_delay_ps: int = 4 * US,
    warmup_ps: int = 50 * MS,
    measure_ps: int = 50 * MS,
    bin_ps: int = 500 * US,
    seed: int = 1,
    ep_profile: str = "default",
) -> dict:
    """One persistent-flow cell on the fluid backend.

    Row shape matches :func:`repro.scenarios.cells.run_persistent` (plus
    ``backend: "fluid"``, minus the packet-only family columns); its
    step is the packet cell's control RTT (``topo_params["base_rtt_ps"]``,
    default :data:`repro.scenarios.cells.BASE_RTT_PS`); ``seed`` is
    recorded but the evolution is deterministic — a fluid cell has no
    event ordering to randomize.
    Chaos plans are rejected at the schema layer (:func:`fluid_blockers`),
    so this cell takes none.
    """
    # The packet cells' row fold and RTT default.  Imported here so
    # ``repro.sim.fluid`` stays importable without the scenario layer
    # above it; the compiler that emitted this cell has already loaded it.
    from repro.scenarios.cells import BASE_RTT_PS, _persistent_row

    topo_params = topo_params or {}
    dyn = _dynamics(protocol, ep_profile)
    links, routes, capacity_bps = _fluid_fabric(
        topology, n_flows, rate_bps, topo_params)
    flows = [FluidFlow(route=route) for route in routes]
    net = FluidNetwork(links, flows, dyn,
                       rtt_ps=topo_params.get("base_rtt_ps", BASE_RTT_PS))

    horizon_ps = warmup_ps + measure_ps
    totals: List[float] = []
    net.run(warmup_ps, sample_every_ps=bin_ps, samples=totals)
    base = [f.delivered_bytes for f in flows]
    net.run(horizon_ps, sample_every_ps=bin_ps, samples=totals)

    seconds = measure_ps / 1e12
    rates = [(f.delivered_bytes - b) * 8 / seconds
             for f, b in zip(flows, base)]
    # data_drops=0: the fluid model admits no overflow, so no loss.
    row = _persistent_row(protocol, n_flows, topology, seed, rates,
                          capacity_bps, net.max_queue_bytes(), 0, totals,
                          bin_ps, warmup_ps, chaos=None)
    row["backend"] = "fluid"
    return row


def fluid_join_convergence(
    protocol: str,
    rate_bps: int,
    base_rtt_ps: int = 100 * US,
    max_rtts: int = 4000,
    tolerance: float = 0.25,
    alpha: Optional[float] = None,
) -> dict:
    """Fig 16 trend mode: RTTs for a joining flow to reach fair share.

    Flow 0 saturates the bottleneck; flow 1 joins at rate 0.  Convergence =
    first step where both rates are within ``tolerance`` of the fair share
    (the packet path's ±25 % band).  ``alpha`` overrides the ExpressPass
    aggression (Fig 16's α variants: halving α roughly doubles the time).
    """
    dyn = _dynamics(protocol)
    if alpha is not None:
        dyn = Dynamics(utilization=dyn.utilization,
                       gain_per_rtt=min(1.0, 2 * alpha),
                       queue_bytes=dyn.queue_bytes,
                       start_fraction=alpha,
                       credit_throttled=dyn.credit_throttled)
    link = FluidLink(rate_bps)
    flows = [FluidFlow(route=(0,)), FluidFlow(route=(0,), start_ps=0)]
    net = FluidNetwork([link], flows, dyn, rtt_ps=base_rtt_ps)
    # Pre-converge flow 0 alone, then admit flow 1 at its start fraction.
    flows[0].rate_bps = link.capacity_bps * dyn.utilization
    fair = link.capacity_bps * dyn.utilization / 2
    lo, hi = (1 - tolerance) * fair, (1 + tolerance) * fair
    for step in range(1, max_rtts + 1):
        net.step()
        if all(lo <= f.rate_bps <= hi for f in flows):
            return {"protocol": protocol, "rate_gbps": rate_bps / 1e9,
                    "convergence_rtts": float(step), "converged": True}
    return {"protocol": protocol, "rate_gbps": rate_bps / 1e9,
            "convergence_rtts": None, "converged": False}


# -- flow-level fluid FCT (Fig 18 trend mode) --------------------------------

def _ramp_fraction(age_rtts: float, w_init: float) -> float:
    """Fraction of path capacity a flow of this age can use.

    ExpressPass doubles the credit rate every uncongested RTT, so a flow
    starting at ``w_init`` reaches line rate after ``log2(1/w_init)``
    RTTs — that handful of RTTs is exactly the short-flow penalty Fig 18
    charges to small ``w_init``.  (α shapes behaviour *after* congestion
    feedback, i.e. the waste term, not this initial ramp.)
    """
    return min(1.0, w_init * 2.0 ** age_rtts)


def fluid_fct_point(
    alpha: float,
    w_init: float,
    workload: str,
    load: float,
    n_flows: int,
    rate_bps: int = 10 * GBPS,
    seed: int = 1,
    size_cap_bytes: Optional[int] = 20_000_000,
    base_rtt_ps: int = 60 * US,
) -> dict:
    """Fig 18 trend mode: (α, w_init) sensitivity via processor sharing.

    The same Poisson arrival stream the packet path would draw (identical
    RNG discipline: seed → sizes and inter-arrivals) feeds a single-server
    processor-sharing fabric: active flows split capacity equally, each
    capped at line rate times its (α, w_init) ramp fraction, with the
    capacity shaved by the credit waste lower α avoids.  Reductions match
    ``fig18_param_sensitivity.run_point``: p99 FCT for S and L buckets plus
    the waste ratio.
    """
    import random

    from repro.metrics.fct import FctStats, bucket_of
    from repro.workloads import WORKLOADS
    from repro.workloads.generators import poisson_arrival_rate_fps, \
        poisson_specs

    dist = WORKLOADS[workload]
    rng = random.Random(seed)
    n_hosts = 32
    mean = dist.mean_bytes if size_cap_bytes is None \
        else min(dist.mean_bytes, size_cap_bytes)
    fps = poisson_arrival_rate_fps(load, n_hosts * rate_bps, mean)
    specs = poisson_specs(rng, dist, n_flows, n_hosts, fps)
    if size_cap_bytes is not None:
        specs = [s if s.size_bytes <= size_cap_bytes else
                 type(s)(s.src, s.dst, size_cap_bytes, s.start_ps)
                 for s in specs]

    # Unfinished credits are wasted bandwidth: high α probes hard and
    # wastes more.  Waste shaves every flow's *path* capacity (an elephant
    # is NIC-bottlenecked, and the wasted credits ride its own links),
    # which is what makes low α a win for large flows (the paper's Fig 18
    # trade-off) even though it slows every flow's ramp.
    # Both knobs feed it: α drives steady-state probing waste, w_init the
    # first-RTT burst of speculative credits.
    waste = 0.3 * alpha + 0.3 * w_init
    path_bps = rate_bps * (1 - waste)
    capacity = n_hosts * path_bps
    dt_ps = base_rtt_ps
    dt_s = dt_ps * 1e-12

    remaining = {i: float(s.size_bytes) for i, s in enumerate(specs)}
    started: Dict[int, int] = {}
    fcts: List[Tuple[int, int]] = []   # (size_bytes, fct_ps)
    now_ps = 0
    arrivals = sorted(range(len(specs)), key=lambda i: specs[i].start_ps)
    next_arrival = 0
    active: List[int] = []
    horizon_guard = specs[-1].start_ps + 10**13 if specs else 0

    while (next_arrival < len(arrivals) or active) \
            and now_ps <= horizon_guard:
        while next_arrival < len(arrivals) and \
                specs[arrivals[next_arrival]].start_ps <= now_ps:
            idx = arrivals[next_arrival]
            started[idx] = now_ps
            active.append(idx)
            next_arrival += 1
        if active:
            share = capacity / len(active)
            done = []
            for idx in active:
                age = (now_ps - started[idx]) / base_rtt_ps
                cap = path_bps * _ramp_fraction(age, w_init)
                rate = min(share, cap)
                remaining[idx] -= rate * dt_s / 8
                if remaining[idx] <= 0:
                    fcts.append((specs[idx].size_bytes,
                                 now_ps + dt_ps - specs[idx].start_ps))
                    done.append(idx)
            for idx in done:
                active.remove(idx)
        elif next_arrival < len(arrivals):
            now_ps = specs[arrivals[next_arrival]].start_ps
            continue
        now_ps += dt_ps

    by_bucket: Dict[str, List[int]] = {}
    for size, fct_ps in fcts:
        by_bucket.setdefault(bucket_of(size), []).append(fct_ps)
    row = {"alpha": f"1/{round(1 / alpha)}",
           "w_init": f"1/{round(1 / w_init)}"}
    for bucket in ("S", "L"):
        vals = by_bucket.get(bucket)
        row[f"p99_fct_{bucket}_ms"] = (
            FctStats.from_fcts_ps(vals).p99_s * 1e3 if vals else None)
    row["credit_waste"] = round(waste, 4)
    return row


__all__ = ["run_fluid", "fluid_join_convergence", "fluid_fct_point"]
