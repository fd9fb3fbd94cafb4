"""Canned chaos scenarios: named fault plans and the recovery bar.

Each of :data:`SCENARIOS` names one fault on the k=4 fat tree
(:func:`plan_for` builds its :class:`~repro.chaos.plan.FaultPlan`).  There
is one harness that runs them: the scenario-matrix cell
(:func:`repro.scenarios.cells.run_persistent` with a ``chaos_plan``), whose
fabric, pairing, timing and fault window are declared once, in the bundled
``scenarios/fabric_chaos_recovery.yaml``.  ``python -m repro chaos S`` is
that spec's ExpressPass × ``S`` cells run under the audit plane, plus a gate
(:func:`recovered`); ``python -m repro matrix fabric_chaos_recovery`` is the
whole cross-product, ranked.

A cell's row answers the operational questions: how far did goodput fall,
how long until it was back within :data:`RECOVERY_FRACTION` of the
pre-fault level, and did any flow stall outright; the audit plane says
whether the run stayed within every invariant it checks (injected drops
budgeted — any *other* loss is a violation).
"""

from __future__ import annotations

from repro.chaos.plan import (
    CreditMeterFault,
    FaultPlan,
    HostJitterFault,
    LinkFlap,
    LossBurst,
    SwitchBlackout,
)
from repro.sim.units import MS, US

#: Goodput must return to this fraction of its pre-fault level to count as
#: recovered (the acceptance bar for every scenario).
RECOVERY_FRACTION = 0.9


def recovered(row: dict) -> bool:
    """The ``repro chaos`` gate on one audited cell row: no invariant
    violated, no flow stalled, and goodput back to — and, at the end of the
    run, still at — :data:`RECOVERY_FRACTION` of its pre-fault level."""
    return (row["violations"] == 0 and row["stalled"] == 0
            and row["recovery_ms"] >= 0
            and row["recovered_frac"] >= RECOVERY_FRACTION)


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


SCENARIOS = ("link-flap", "switch-blackout", "loss-burst",
             "credit-misconfig", "host-jitter")


def plan_for(scenario: str, seed: int = 1, fault_ps: int = 6 * MS,
             duration_ps: int = 4 * MS,
             reconverge_delay_ps: int = 200 * US) -> FaultPlan:
    """The scenario's fault plan, standalone — e.g. to save for a spec's
    ``chaos.plan``."""
    return _fabric_plan(scenario, seed, fault_ps, duration_ps,
                        reconverge_delay_ps)
