"""Matrix cell functions: the picklable units a compiled scenario runs.

One cell = one simulation = one :class:`repro.runtime.TaskSpec`, so the
process pool, content-addressed cache, retries, and audit capture all apply
unchanged.  Every argument is plain data (strings, ints, dicts) — chaos
plans arrive as ``FaultPlan.to_dict()`` dicts, ExpressPass parameters as a
named profile — which keeps cache keys stable across processes and spec
reloads.

``run_persistent`` generalizes Fig 15's measurement (long-running pairs,
steady-window utilization/fairness/queue) across all five concrete topology
families; its dumbbell branch is Fig 15's exact construction, and its
parking-lot and multi-bottleneck branches are Figs 10 and 11's, which is
what keeps those spec-compiled rows bit-identical to the deleted
hand-written sweeps'.  ``run_poisson`` wraps
:func:`repro.experiments.realistic.run_realistic` (the Fig 19–21 / Table 3
cell; Fig 18 calls it directly) and flattens the result to a plain dict.
``run_incast`` is the fan-in cell on one switch — persistent senders
(Fig 1), one response per worker (the RDMA comparison) or closed-loop
waves (the §2 incast) — built in the order the three deleted loops built
theirs, so their rows are bit-identical too.

Compiling a matrix *names* these functions; only a cache miss *calls* one.
So the module's top level imports the units and nothing else, and each
function imports the simulator half it drives when it runs (DESIGN §16) —
a fully cached ``repro matrix`` never loads the packet engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.sim.units import GBPS, MS, SEC, US

#: A persistent cell's control RTT unless ``topology.params.base_rtt_ps``
#: sets one (the fluid backend's step reads the same value).
BASE_RTT_PS = 30 * US

if TYPE_CHECKING:
    from repro.core import ExpressPassParams
    from repro.sim.engine import Simulator
    from repro.topology import LinkSpec


def resolve_ep_profile(profile: str) -> Optional[ExpressPassParams]:
    """The ExpressPass parameter profile a spec selects by name."""
    from repro.core.params import REALISTIC_WORKLOAD_PARAMS

    profiles = {"default": None, "realistic": REALISTIC_WORKLOAD_PARAMS}
    if profile not in profiles:
        raise ValueError(f"unknown ep_profile {profile!r}; "
                         f"choose from {sorted(profiles)}")
    return profiles[profile]


def _attach_chaos(sim: Simulator, net, chaos_plan: Optional[dict]):
    """Build the cell's ChaosController from a plan dict (or no-op)."""
    if chaos_plan is None:
        return None
    from repro.chaos import ChaosController, FaultPlan

    return ChaosController(sim, net, FaultPlan.from_dict(chaos_plan))


#: A family's own measurement: called when the warmup ends, it returns
#: the fold that turns the per-flow rates and the measure window (seconds)
#: into the family's extra row columns.
Measure = Callable[[], Callable[[List[float], float], dict]]


def _persistent_fabric(sim: Simulator, topology: str, n_flows: int,
                       spec: LinkSpec, topo_params: dict,
                       ) -> Tuple[object, List[Tuple[object, object]], int,
                                  Optional[Measure]]:
    """Build the named topology and its flow pairing.

    Returns ``(topo, pairs, capacity_bps, measure)`` where ``capacity_bps``
    is the utilization denominator: the capacity of what the family
    actually shares (dumbbell/multi-bottleneck: the one contended link;
    parking lot: the sum of chain links; star and fat tree: the sum of
    per-pair edge capacity, since no single link is shared).  ``measure``
    (a :data:`Measure`, or ``None``) adds the column the family's figure
    reads: the parking lot's ``min_link_utilization`` (Fig 10: the worst
    bottleneck port's data bytes over the window, normalized to the
    maximum data rate ``rate · 1538/1626``) and the multi-bottleneck's
    ``flow0_gbps`` (Fig 11: the long flow's goodput).
    """
    from repro.topology import (
        dumbbell, fat_tree, multi_bottleneck, parking_lot, single_switch)

    rate = spec.rate_bps
    if topology == "dumbbell":
        topo = dumbbell(sim, n_pairs=n_flows, bottleneck=spec)
        return topo, list(zip(topo.senders, topo.receivers)), rate, None
    if topology == "single_switch":
        topo = single_switch(sim, 2 * n_flows, link=spec)
        pairs = [(topo.hosts[i], topo.hosts[n_flows + i])
                 for i in range(n_flows)]
        return topo, pairs, n_flows * rate, None
    if topology == "parking_lot":
        topo = parking_lot(sim, n_bottlenecks=n_flows - 1, link=spec)
        pairs = [(topo.long_src, topo.long_dst)]
        pairs += list(zip(topo.cross_srcs, topo.cross_dsts))
        ports = topo.bottleneck_ports

        def worst_link() -> Callable[[List[float], float], dict]:
            base = [p.stats.data_bytes_sent for p in ports]

            def fold(_rates: List[float], seconds: float) -> dict:
                max_data = rate * 1538 / 1626  # credit reservation excluded
                utils = [(p.stats.data_bytes_sent - b) * 8 / seconds
                         / max_data for p, b in zip(ports, base)]
                return {"min_link_utilization": min(utils)}
            return fold

        return topo, pairs, (n_flows - 1) * rate, worst_link
    if topology == "multi_bottleneck":
        topo = multi_bottleneck(sim, n_cross_flows=n_flows - 1, link=spec)
        pairs = [(topo.flow0_src, topo.flow0_dst_hosts[0])]
        pairs += [(src, topo.flow0_dst_hosts[i + 1])
                  for i, src in enumerate(topo.cross_srcs)]

        def flow0() -> Callable[[List[float], float], dict]:
            return lambda rates, _seconds: {"flow0_gbps": rates[0] / 1e9}

        return topo, pairs, rate, flow0
    if topology == "fat_tree":
        k = int(topo_params.get("k", 4))
        topo = fat_tree(sim, k, edge=spec)
        by_name = {h.name: h for h in topo.hosts}
        half = k // 2
        names = [(f"h{p}_{t}_{h}", f"h{p + 2}_{t}_{h}")
                 for p in range(half) for t in range(half)
                 for h in range(half)]
        if n_flows > len(names):
            raise ValueError(f"k={k} fat tree supports at most {len(names)} "
                             f"inter-pod pairs, got {n_flows}")
        pairs = [(by_name[a], by_name[b]) for a, b in names[:n_flows]]
        return topo, pairs, n_flows * rate, None
    raise ValueError(f"unknown topology kind {topology!r}")


def _goodput_gbps(totals: List[int], bin_ps: int) -> List[float]:
    bin_s = bin_ps * 1e-12
    return [(totals[i + 1] - totals[i]) * 8 / bin_s / 1e9
            for i in range(len(totals) - 1)]


def _first_sustained(gbps: List[float], threshold: float, start_bin: int,
                     bin_ps: int) -> int:
    """End time (ps) of the first of two consecutive bins >= threshold
    starting at ``start_bin``; -1 if never sustained."""
    for i in range(start_bin, len(gbps) - 1):
        if gbps[i] >= threshold and gbps[i + 1] >= threshold:
            return (i + 1) * bin_ps
    if len(gbps) == start_bin + 1 and gbps[start_bin] >= threshold:
        return (start_bin + 1) * bin_ps
    return -1


def _persistent_row(protocol: str, n_flows: int, topology: str, seed: int,
                    rates: List[float], capacity_bps: int,
                    max_queue_bytes: int, data_drops: int,
                    totals: List[int], bin_ps: int, warmup_ps: int,
                    chaos) -> dict:
    """Fold raw measurements (per-flow rates in flow-creation order, the
    per-bin delivered-byte totals, the cell's ChaosController or ``None``)
    into the cell's result row."""
    from repro.metrics.fairness import jain_index

    gbps = _goodput_gbps(totals, bin_ps)
    steady = sum(rates) / 1e9
    threshold = 0.9 * (steady if steady > 0 else float("inf"))
    convergence_ps = _first_sustained(gbps, threshold, 0, bin_ps)

    row = {
        "protocol": protocol,
        "flows": n_flows,
        "utilization": sum(rates) / capacity_bps,
        "fairness": jain_index(rates),
        "max_queue_kb": max_queue_bytes / 1e3,
        "data_drops": data_drops,
        "topology": topology,
        "seed": seed,
        "agg_gbps": round(steady, 4),
        "convergence_ms": (round(convergence_ps / MS, 3)
                           if convergence_ps >= 0 else -1.0),
    }
    if chaos is not None:
        from repro.chaos.scenarios import RECOVERY_FRACTION

        fault_ps = min(ev.t_ps for ev in chaos.plan.events)
        pre_bins = [gbps[i] for i in range(len(gbps))
                    if i * bin_ps >= warmup_ps
                    and (i + 1) * bin_ps <= fault_ps]
        fault_bins = [gbps[i] for i in range(len(gbps))
                      if i * bin_ps >= fault_ps]
        pre = sum(pre_bins) / len(pre_bins) if pre_bins else 0.0
        low = min(fault_bins) if fault_bins else 0.0
        tail = gbps[-2:] if len(gbps) >= 2 else gbps
        post = sum(tail) / len(tail) if tail else 0.0
        recovery_ps = _first_sustained(gbps, RECOVERY_FRACTION * pre,
                                       fault_ps // bin_ps, bin_ps)
        if recovery_ps >= 0:
            recovery_ps -= fault_ps
        row.update({
            "pre_gbps": round(pre, 3),
            "low_gbps": round(low, 3),
            "post_gbps": round(post, 3),
            "recovered_frac": round(post / pre, 4) if pre > 0 else 0.0,
            "recovery_ms": (round(recovery_ps / MS, 3)
                            if recovery_ps >= 0 else -1.0),
            "faults": len(chaos.applied),
            "injected_credit": chaos.total_injected_credit,
            "injected_data": chaos.total_injected_data,
        })
    return row


def run_persistent(
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
    chaos_plan: Optional[dict] = None,
) -> dict:
    """One persistent-flow cell: long-running pairs, steady-window metrics.

    ``topo_params`` carries the family's ``topology.params``: the fat
    tree's ``k``, and ``base_rtt_ps``, the control RTT the transport is
    tuned for (:data:`BASE_RTT_PS` unless set; Figs 10 and 11 set 40 us).
    The parking lot and the multi-bottleneck add their figure's column
    (see :func:`_persistent_fabric`).

    With a ``chaos_plan`` the row also carries the fault recovery
    columns — this is the one harness behind ``repro chaos`` and ``repro
    matrix fabric_chaos_recovery``: pre-fault mean, fault-window minimum
    and last-two-bins goodput, time until goodput sustains
    :data:`repro.chaos.scenarios.RECOVERY_FRACTION` of the pre-fault level,
    flows that delivered nothing over the closing ``max(2 bins, 2 ms)``
    (``stalled``), and the transports' path re-hash / watchdog counts.
    """
    from repro.experiments.runner import get_harness
    from repro.obs import trace as obs_trace
    from repro.sim.engine import Simulator
    from repro.topology import LinkSpec
    tracer = obs_trace.emit_target()

    build_t0 = tracer.now_us() if tracer is not None else 0.0
    topo_params = topo_params or {}
    params = resolve_ep_profile(ep_profile)
    sim = Simulator(seed=seed)
    harness = get_harness(protocol, rate_bps,
                          topo_params.get("base_rtt_ps", BASE_RTT_PS), params)
    spec = harness.adapt_link(
        LinkSpec(rate_bps=rate_bps, prop_delay_ps=prop_delay_ps))
    topo, pairs, capacity_bps, measure = _persistent_fabric(
        sim, topology, n_flows, spec, topo_params)
    chaos = _attach_chaos(sim, topo.net, chaos_plan)
    harness.install(sim, topo.net)
    flows = [harness.flow(src, dst, None) for src, dst in pairs]

    # Fixed-edge goodput sampling (read-only callbacks: they never perturb
    # the simulation, so the dumbbell branch stays bit-identical to the
    # frozen fig15 rows, which were measured without a sampler).
    horizon_ps = warmup_ps + measure_ps
    n_bins = horizon_ps // bin_ps
    totals: List[int] = []

    def _sample() -> None:
        totals.append(sum(f.bytes_delivered for f in flows))

    for i in range(n_bins + 1):
        sim.schedule_at(i * bin_ps, _sample)
    late: Dict[object, int] = {}
    if chaos is not None:
        # One more read-only sample, per flow this time: a flow that has
        # delivered nothing between here and the horizon is stalled.
        sim.schedule_at(max(0, horizon_ps - max(2 * bin_ps, 2 * MS)),
                        lambda: late.update((f, f.bytes_delivered)
                                            for f in flows))
    if tracer is not None:
        tracer.span("sim", "cell.build", track="phases",
                    t0=build_t0, t1=tracer.now_us(),
                    args={"protocol": protocol, "topology": topology,
                          "flows": n_flows})

    warm_t0 = tracer.now_us() if tracer is not None else 0.0
    sim.run(until=warmup_ps)
    if tracer is not None:
        tracer.span("sim", "cell.warmup", track="phases.sim", clock="sim",
                    t0=0, t1=warmup_ps,
                    args={"wall_us": round(tracer.now_us() - warm_t0, 3)})
    base = {f: f.bytes_delivered for f in flows}
    fold = measure() if measure is not None else None
    meas_t0 = tracer.now_us() if tracer is not None else 0.0
    sim.run(until=horizon_ps)
    if tracer is not None:
        tracer.span("sim", "cell.measure", track="phases.sim", clock="sim",
                    t0=warmup_ps, t1=horizon_ps,
                    args={"wall_us": round(tracer.now_us() - meas_t0, 3)})
    fin_t0 = tracer.now_us() if tracer is not None else 0.0
    seconds = measure_ps / 1e12
    rates = [(f.bytes_delivered - base[f]) * 8 / seconds for f in flows]
    row = _persistent_row(
        protocol, n_flows, topology, seed, rates, capacity_bps,
        topo.net.max_data_queue_bytes(), topo.net.total_data_drops(),
        totals, bin_ps, warmup_ps, chaos)
    if fold is not None:
        row.update(fold(rates, seconds))
    if chaos is not None:
        row["stalled"] = sum(1 for f in flows
                             if f.bytes_delivered <= late[f])
        row["rehashes"] = sum(f.path_rehashes for f in flows)
        # The dead-path watchdog is ExpressPass's; window transports
        # re-hash from their RTO handler and count no recoveries.
        row["recoveries"] = sum(getattr(f, "path_recoveries", 0)
                                for f in flows)
    if tracer is not None:
        tracer.span("sim", "cell.finalize", track="phases",
                    t0=fin_t0, t1=tracer.now_us(),
                    args={"protocol": protocol})
    return row


def run_poisson(
    protocol: str,
    n_flows: int,
    distribution: str = "web_search",
    load: float = 0.6,
    rate_bps: int = 10 * GBPS,
    core_rate_bps: Optional[int] = None,
    size_cap_bytes: Optional[int] = 20_000_000,
    drain_ps: int = 1 * SEC,
    seed: int = 1,
    ep_profile: str = "default",
    chaos_plan: Optional[dict] = None,
) -> dict:
    """One realistic-workload cell on the scaled Clos, flattened to a dict.

    FCT statistics come back both overall (``avg_fct_ms``/``p99_fct_ms``
    across every completed flow) and per Table-2 size bucket (``buckets``),
    so the fig19 table and the matrix report both read off one shape.
    """
    from repro.experiments.realistic import run_realistic
    from repro.metrics.fct import FctStats
    from repro.obs import trace as obs_trace
    tracer = obs_trace.emit_target()
    run_t0 = tracer.now_us() if tracer is not None else 0.0

    result = run_realistic(
        protocol, distribution, load, n_flows,
        rate_bps=rate_bps, core_rate_bps=core_rate_bps, seed=seed,
        ep_params=resolve_ep_profile(ep_profile),
        size_cap_bytes=size_cap_bytes, drain_ps=drain_ps,
        chaos_plan=chaos_plan)
    if tracer is not None:
        tracer.span("sim", "cell.poisson", track="phases",
                    t0=run_t0, t1=tracer.now_us(),
                    args={"protocol": protocol, "workload": distribution,
                          "load": load, "flows": n_flows})

    fcts_ps = [f.fct_ps for f in result.flows
               if f.fct_ps is not None and f.size_bytes is not None]
    overall = FctStats.from_fcts_ps(fcts_ps) if fcts_ps else None
    return {
        "protocol": protocol,
        "workload": distribution,
        "load": load,
        "flows": n_flows,
        "seed": seed,
        "completed": result.completed,
        "avg_fct_ms": overall.mean_s * 1e3 if overall else None,
        "p99_fct_ms": overall.p99_s * 1e3 if overall else None,
        "avg_queue_kb": result.avg_queue_kb,
        "max_queue_kb": result.max_queue_kb,
        "data_drops": result.data_drops,
        "credit_waste_ratio": result.credit_waste_ratio,
        "buckets": result.bucket_stats(),
    }


#: How often the incast cell samples the master's downlink queue.
QUEUE_SAMPLE_PS = 50 * US


def run_incast(
    protocol: str,
    n_flows: int,
    topo_params: Optional[dict] = None,
    flow_bytes: Optional[int] = None,
    rounds: Optional[int] = None,
    start_jitter_ps: int = 0,
    rate_bps: int = 10 * GBPS,
    prop_delay_ps: int = 4 * US,
    measure_ps: int = 50 * MS,
    seed: int = 1,
    ep_profile: str = "default",
) -> dict:
    """One fan-in cell: ``n_flows`` workers send to host 0 of a switch of
    ``topo_params["hosts"]`` (default ``n_flows + 1``), wrapped onto hosts
    1…H−1 by :func:`repro.workloads.incast_specs`' rule.

    Traffic is persistent senders (``flow_bytes`` ``None``), one
    ``flow_bytes`` response per worker, or ``rounds`` closed-loop waves of
    200 B requests and ``flow_bytes`` responses; starts are drawn from
    [0, ``start_jitter_ps``].  The downlink is sampled every
    :data:`QUEUE_SAMPLE_PS` until a tick finds no worker traffic live.  A
    column the traffic mode does not produce is ``None``.
    """
    from repro.experiments.runner import get_harness
    from repro.metrics.fct import percentile
    from repro.sim.engine import Simulator
    from repro.topology import LinkSpec, single_switch
    from repro.workloads import incast_specs

    topo_params = topo_params or {}
    hosts = topo_params.get("hosts", n_flows + 1)
    sim = Simulator(seed=seed)
    harness = get_harness(protocol, rate_bps,
                          topo_params.get("base_rtt_ps", BASE_RTT_PS),
                          resolve_ep_profile(ep_profile))
    spec = harness.adapt_link(
        LinkSpec(rate_bps=rate_bps, prop_delay_ps=prop_delay_ps))
    topo = single_switch(sim, hosts, link=spec)
    harness.install(sim, topo.net)

    master = topo.hosts[0]
    workers = incast_specs(
        n_flows, receiver=0, bytes_per_sender=flow_bytes,
        jitter_ps=start_jitter_ps, n_hosts=hosts,
        rng=sim.rng("fig1-start") if start_jitter_ps else None)
    flows: list = []
    app = None
    if rounds is None:
        flows = [harness.flow(topo.hosts[w.src], master, w.size_bytes,
                              start_ps=w.start_ps) for w in workers]
    else:
        from repro.apps import PartitionAggregate
        app = PartitionAggregate(sim, harness, master,
                                 [topo.hosts[w.src] for w in workers],
                                 request_bytes=200, response_bytes=flow_bytes,
                                 rounds=rounds)
    downlink = topo.net.port_between(topo.switch, master)
    samples: List[int] = []

    def _sample() -> None:
        live = (app.completed_rounds < rounds if app is not None else
                flow_bytes is None or not all(f.completed for f in flows))
        if live:
            samples.append(downlink.data_queue.bytes)
            sim.schedule_unref(QUEUE_SAMPLE_PS, _sample)

    sim.schedule_unref(0, _sample)
    sim.run(until=measure_ps)

    pkts = [b / 1538 for b in samples]
    fcts = ([f.fct_ps / 1e9 for f in flows if f.completed]
            if flow_bytes is not None and app is None else None)
    waves = None if app is None else [t / 1e9 for t in app.round_latencies_ps]
    pfc = next((p.pfc for p in topo.net.ports if p.pfc is not None), None)
    return {
        "protocol": protocol,
        "flows": n_flows,
        "hosts": hosts,
        "seed": seed,
        "completed": None if fcts is None else len(fcts),
        "fct_ms_p50": percentile(fcts, 50) if fcts else None,
        "fct_ms_p99": percentile(fcts, 99) if fcts else None,
        "fct_ms_max": max(fcts) if fcts else None,
        "rounds_done": None if app is None else app.completed_rounds,
        "wave_ms_p50": percentile(waves, 50) if waves else None,
        "wave_ms_p99": percentile(waves, 99) if waves else None,
        "queue_pkts_p50": percentile(pkts, 50),  # the t = 0 tick samples
        "queue_pkts_p99": percentile(pkts, 99),
        "downlink_queue_max_pkts": downlink.data_queue.stats.max_bytes / 1538,
        "max_queue_kb": topo.net.max_data_queue_bytes() / 1e3,
        "data_drops": topo.net.total_data_drops(),
        "pfc_pauses": 0 if pfc is None else pfc.pauses_sent,
    }
