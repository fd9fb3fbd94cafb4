"""Canned chaos scenarios: fault plans + recovery measurement on a fabric.

Every scenario runs the same harness on a k-ary fat tree carrying
persistent inter-pod ExpressPass flows:

1. warm the fabric up,
2. execute the scenario's :class:`~repro.chaos.plan.FaultPlan`,
3. sample aggregate goodput in fixed bins throughout,
4. stop the flows, drain to quiescence, and audit (injected drops
   budgeted — any *other* loss is a violation).

The report answers the operational questions: how far did goodput fall,
how long until it was back within 90 % of the pre-fault level, did any
flow stall outright, and did the run stay within every invariant the audit
plane checks.

``run_point`` is the module-level, picklable entry the sweep scheduler and
``benchmarks/bench_chaos_recovery.py`` fan out over seeds; ``run`` wraps it
into an :class:`~repro.experiments.runner.ExperimentResult` for the CLI.
"""

from __future__ import annotations

from typing import Dict, List

from repro.audit import NetworkAuditor
from repro.audit.golden import trace_digest
from repro.chaos.controller import ChaosController
from repro.chaos.plan import (
    CreditMeterFault,
    FaultPlan,
    HostJitterFault,
    LinkFlap,
    LossBurst,
    SwitchBlackout,
)
from repro.core import ExpressPassFlow, ExpressPassParams
from repro.net.trace import PortTracer
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.topology.fattree import fat_tree

#: Goodput must return to this fraction of its pre-fault level to count as
#: recovered (the acceptance bar for every scenario).
RECOVERY_FRACTION = 0.9


def _fabric_plan(scenario: str, seed: int, fault_ps: int, duration_ps: int,
                 reconverge_delay_ps: int) -> FaultPlan:
    """The fault plan for one named scenario on the k=4 fat tree."""
    if scenario == "link-flap":
        events = (LinkFlap(t_ps=fault_ps, a="agg0_0", b="core0",
                           down_ps=duration_ps),)
    elif scenario == "switch-blackout":
        events = (SwitchBlackout(t_ps=fault_ps, node="agg0_0",
                                 duration_ps=duration_ps),)
    elif scenario == "loss-burst":
        # Stationary loss ≈ 0.1/(0.1+0.4) = 20 %, mean burst 2.5 packets:
        # heavy enough to bite, partial enough that Algorithm 1 (not the
        # dead-path watchdog) is what absorbs it.
        events = (LossBurst(t_ps=fault_ps, a="tor0_0", b="agg0_0",
                            duration_ps=duration_ps, p_enter_bad=0.1,
                            p_exit_bad=0.4, direction="both"),)
    elif scenario == "credit-misconfig":
        # Triple the credit meter at the receiver NIC: the first hop on the
        # credit path over-admits, downstream 5 % meters shed the excess as
        # ordinary (accounted) credit drops — the fabric self-corrects.
        events = (CreditMeterFault(t_ps=fault_ps, a="h2_0_0", b="tor2_0",
                                   duration_ps=duration_ps, factor=3.0),)
    elif scenario == "host-jitter":
        events = (HostJitterFault(t_ps=fault_ps, host="h0_0_0",
                                  duration_ps=duration_ps, factor=16.0),)
    else:
        raise ValueError(f"unknown chaos scenario {scenario!r}; "
                         f"known: {', '.join(sorted(SCENARIOS))}")
    return FaultPlan(name=scenario, seed=seed,
                     reconverge_delay_ps=reconverge_delay_ps, events=events)


def run_point(
    scenario: str = "link-flap",
    seed: int = 1,
    k: int = 4,
    n_flows: int = 8,
    fault_ps: int = 6 * MS,
    duration_ps: int = 4 * MS,
    horizon_ps: int = 18 * MS,
    bin_ps: int = 500 * US,
    warmup_ps: int = 2 * MS,
    reconverge_delay_ps: int = 200 * US,
    digest: bool = False,
    series: bool = False,
) -> dict:
    """Run one chaos scenario once; returns a flat metrics dict.

    Flows are persistent ExpressPass transfers between mirrored hosts of
    pods p and p+2 (every flow crosses the core, where the faults live).
    """
    from repro.scenarios.cells import _first_sustained, _goodput_gbps

    if fault_ps + duration_ps >= horizon_ps:
        raise ValueError("fault must start and end within the horizon")
    if warmup_ps >= fault_ps:
        raise ValueError("warmup must end before the fault starts")
    sim = Simulator(seed=seed)
    topo = fat_tree(sim, k)
    if sim.chaos is not None:
        raise RuntimeError("scenario runs build their own fault plan; "
                           "unset REPRO_CHAOS to run one")
    auditor = sim.auditor or NetworkAuditor(sim)
    auditor.attach_network(topo.net)

    plan = _fabric_plan(scenario, seed, fault_ps, duration_ps,
                        reconverge_delay_ps)
    chaos = ChaosController(sim, topo.net, plan)

    by_name = {h.name: h for h in topo.hosts}
    half = k // 2
    params = ExpressPassParams()
    flows: List[ExpressPassFlow] = []
    pairs = [(f"h{p}_{t}_{h}", f"h{p + 2}_{t}_{h}")
             for p in (0, 1) for t in range(half) for h in range(half)]
    for i, (src, dst) in enumerate(pairs[:n_flows]):
        flows.append(ExpressPassFlow(
            by_name[src], by_name[dst], size_bytes=None,
            start_ps=i * 10 * US, params=params))

    tracers = []
    if digest:
        # The flapped link's both directions plus one host NIC: enough wire
        # to make any divergence (drop choice, timing, routing) visible.
        nodes = {n.name: n for n in topo.net.nodes.values()}
        for a, b in (("agg0_0", "core0"), ("core0", "agg0_0")):
            tracers.append(PortTracer(nodes[a].ports[nodes[b].id]))
        tracers.append(PortTracer(by_name["h0_0_0"].nic))

    # Pre-scheduled goodput sampling: fixed bin edges, no self-rescheduling
    # event to keep the heap alive past the horizon.
    n_bins = horizon_ps // bin_ps
    totals: List[int] = []
    per_flow_late: Dict[int, int] = {}
    stall_window_ps = max(2 * bin_ps, 2 * MS)

    def _sample_total() -> None:
        totals.append(sum(f.bytes_delivered for f in flows))

    def _sample_flows() -> None:
        per_flow_late.update({f.fid: f.bytes_delivered for f in flows})

    for i in range(n_bins + 1):
        sim.schedule_at(i * bin_ps, _sample_total)
    sim.schedule_at(horizon_ps - stall_window_ps, _sample_flows)

    sim.run(until=horizon_ps)
    for flow in flows:
        flow.stop()
    sim.run()  # drain in-flight packets so conservation holds exactly
    report = auditor.finalize()

    # -- goodput series ------------------------------------------------------
    gbps = _goodput_gbps(totals, bin_ps)

    def _bin_mean(lo_ps: int, hi_ps: int) -> float:
        vals = [gbps[i] for i in range(len(gbps))
                if i * bin_ps >= lo_ps and (i + 1) * bin_ps <= hi_ps]
        return sum(vals) / len(vals) if vals else 0.0

    pre = _bin_mean(warmup_ps, fault_ps)
    post = _bin_mean(horizon_ps - stall_window_ps, horizon_ps)
    fault_bins = [gbps[i] for i in range(len(gbps)) if i * bin_ps >= fault_ps]
    low = min(fault_bins) if fault_bins else 0.0

    # Time to recover: first bin after fault onset from which goodput stays
    # at >= RECOVERY_FRACTION of pre for two consecutive bins.
    recovery_ps = _first_sustained(gbps, RECOVERY_FRACTION * pre,
                                   fault_ps // bin_ps, bin_ps)
    if recovery_ps >= 0:
        recovery_ps -= fault_ps

    stalled = sum(1 for f in flows
                  if f.bytes_delivered <= per_flow_late.get(f.fid, 0))
    recovered_frac = post / pre if pre > 0 else 0.0
    ok = (len(report.violations) == 0 and stalled == 0
          and recovery_ps >= 0 and recovered_frac >= RECOVERY_FRACTION)

    result = {
        "scenario": scenario,
        "seed": seed,
        "pre_gbps": round(pre, 3),
        "low_gbps": round(low, 3),
        "post_gbps": round(post, 3),
        "recovered_frac": round(recovered_frac, 4),
        "recovery_ms": round(recovery_ps / MS, 3) if recovery_ps >= 0 else -1.0,
        "stalled": stalled,
        "violations": len(report.violations),
        "faults": len(chaos.applied),
        "injected_credit": chaos.total_injected_credit,
        "injected_data": chaos.total_injected_data,
        "rehashes": sum(f.path_rehashes for f in flows),
        "recoveries": sum(f.path_recoveries for f in flows),
        "credit_drops": sum(f.credit_drops for f in flows),
        "max_queue_kb": round(topo.net.max_data_queue_bytes() / 1e3, 1),
        "ok": ok,
    }
    if digest:
        result["trace_digest"] = trace_digest(
            [r for t in tracers for r in t.records])
    if series:
        result["gbps_series"] = [round(g, 3) for g in gbps]
        result["bin_ps"] = bin_ps
    return result


SCENARIOS = ("link-flap", "switch-blackout", "loss-burst",
             "credit-misconfig", "host-jitter")


def plan_for(scenario: str, seed: int = 1, fault_ps: int = 6 * MS,
             duration_ps: int = 4 * MS,
             reconverge_delay_ps: int = 200 * US) -> FaultPlan:
    """The scenario's fault plan, standalone — e.g. to save for REPRO_CHAOS."""
    return _fabric_plan(scenario, seed, fault_ps, duration_ps,
                        reconverge_delay_ps)


def run(scenario: str = "link-flap", seed: int = 1, seeds=None, **overrides):
    """CLI entry: run one scenario (optionally across seeds, swept through
    the runtime scheduler) and return an ExperimentResult."""
    from repro.experiments.runner import ExperimentResult, run_sweep

    if scenario not in SCENARIOS:
        raise ValueError(f"unknown chaos scenario {scenario!r}; "
                         f"known: {', '.join(SCENARIOS)}")
    seed_list = list(seeds) if seeds else [seed]
    rows = run_sweep(
        run_point,
        [{"scenario": scenario, "seed": s} for s in seed_list],
        common=overrides,
        name=f"chaos-{scenario}",
        label=lambda p: f"{p['scenario']}/seed{p['seed']}",
    )
    columns = ["scenario", "seed", "pre_gbps", "low_gbps", "post_gbps",
               "recovered_frac", "recovery_ms", "stalled", "violations",
               "rehashes", "recoveries", "ok"]
    return ExperimentResult(
        name=f"chaos: {scenario}",
        columns=columns,
        rows=rows,
        meta={"ok": all(r["ok"] for r in rows), "scenario": scenario},
    )
