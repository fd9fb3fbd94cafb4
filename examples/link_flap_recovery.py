#!/usr/bin/env python
"""Link-flap recovery demo: watch a fabric absorb a core-link failure.

A k=4 fat tree carries 8 inter-pod ExpressPass flows.  At 6 ms the
``agg0_0``–``core0`` link goes down; routing reconverges 200 µs later and
the link returns at 10 ms.  The timeline shows aggregate goodput dipping
while flows reroute, then snapping back to the pre-fault level.

Run it a second way to see the transport save itself without routing help:
``--slow-routing`` delays reconvergence past the end of the run, so the
dead-path watchdog inside each flow (3 consecutive all-lost credit updates
-> re-hash + feedback reset) is the only recovery mechanism.

This is the *explicit* way into :mod:`repro.chaos` — a ``FaultPlan`` handed
to a ``ChaosController`` on a network you built, with your own sampler.
``python -m repro chaos link-flap`` runs the same fault as a gated,
audited scenario-matrix cell.

Usage::

    python examples/link_flap_recovery.py [--slow-routing] [--seed N]
"""

import argparse

from repro import ExpressPassFlow
from repro.audit import NetworkAuditor
from repro.chaos import ChaosController
from repro.chaos.scenarios import RECOVERY_FRACTION, plan_for
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.topology import fat_tree
from repro.viz import sparkline

K = 4
HORIZON_PS = 18 * MS
BIN_PS = 250 * US
FAULT_PS, DURATION_PS = 6 * MS, 4 * MS


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--slow-routing", action="store_true",
                    help="reconvergence slower than the run: only the "
                         "transport watchdog can recover the flows")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    reconverge = 100 * MS if args.slow_routing else 200 * US
    print("k=4 fat tree, 8 inter-pod ExpressPass flows; "
          "agg0_0<->core0 down at 6 ms, up at 10 ms")
    print("routing reconvergence: "
          + ("never (watchdog-only recovery)" if args.slow_routing
             else "200 us after each change"))

    sim = Simulator(seed=args.seed)
    topo = fat_tree(sim, K)
    auditor = NetworkAuditor(sim)
    auditor.attach_network(topo.net)
    ChaosController(sim, topo.net, plan_for(
        "link-flap", seed=args.seed, fault_ps=FAULT_PS,
        duration_ps=DURATION_PS, reconverge_delay_ps=reconverge))

    # Mirrored hosts of pods p and p+2: every flow crosses the core, where
    # the fault lives.
    hosts = {h.name: h for h in topo.hosts}
    half = K // 2
    flows = [ExpressPassFlow(hosts[f"h{p}_{t}_{h}"], hosts[f"h{p + 2}_{t}_{h}"],
                             size_bytes=None)
             for p in range(half) for t in range(half) for h in range(half)]

    # Fixed bin edges, scheduled up front: no self-rescheduling sampler to
    # keep the event heap alive past the horizon.
    totals, late = [], {}
    for i in range(HORIZON_PS // BIN_PS + 1):
        sim.schedule_at(i * BIN_PS, lambda: totals.append(
            sum(f.bytes_delivered for f in flows)))
    sim.schedule_at(HORIZON_PS - 2 * MS, lambda: late.update(
        (f, f.bytes_delivered) for f in flows))
    sim.run(until=HORIZON_PS)
    for flow in flows:
        flow.stop()
    sim.run()  # drain in-flight packets so conservation holds exactly
    violations = auditor.finalize().violations

    gbps = [(b - a) * 8 / (BIN_PS * 1e-12) / 1e9
            for a, b in zip(totals, totals[1:])]
    first_fault_bin = FAULT_PS // BIN_PS
    pre_bins = gbps[2 * MS // BIN_PS:first_fault_bin]
    pre = sum(pre_bins) / len(pre_bins)
    low = min(gbps[first_fault_bin:])
    post = sum(gbps[-2:]) / 2
    # First bin after fault onset from which goodput holds the recovery bar
    # (90 % of the pre-fault level) for two consecutive bins.
    recovery_ms = next(
        (((i + 1) * BIN_PS - FAULT_PS) / MS
         for i in range(first_fault_bin, len(gbps) - 1)
         if min(gbps[i], gbps[i + 1]) >= RECOVERY_FRACTION * pre), None)
    stalled = sum(1 for f in flows if f.bytes_delivered <= late[f])

    bin_ms = BIN_PS / MS
    hi = max(gbps) or 1.0
    print()
    print(f"aggregate goodput, one column per {bin_ms:g} ms "
          f"(full block = {hi:.1f} Gb/s):")
    print(f"  |{sparkline(gbps, lo=0, hi=hi, ascii_only=True)}|")
    marks = "".join("v" if abs(i * bin_ms - 6.0) < bin_ms / 2 or
                    abs(i * bin_ms - 10.0) < bin_ms / 2 else " "
                    for i in range(len(gbps)))
    print(f"   {marks}   (v = link down / link up)")
    print()
    print(f"  pre-fault goodput : {pre:7.2f} Gb/s")
    print(f"  dip during fault  : {low:7.2f} Gb/s")
    print(f"  post-fault goodput: {post:7.2f} Gb/s "
          f"({post / pre:.1%} of pre-fault)")
    print("  time to recover   : "
          + (f"{recovery_ms:7.2f} ms after fault onset"
             if recovery_ms is not None else "  never (within the run)"))
    print(f"  path re-hashes    : {sum(f.path_rehashes for f in flows):4d}   "
          f"watchdog recoveries: {sum(f.path_recoveries for f in flows)}")
    print(f"  stalled flows     : {stalled:4d}   "
          f"audit violations   : {len(violations)}")
    print()
    print("PASS" if not stalled and not violations else "FAIL")


if __name__ == "__main__":
    main()
