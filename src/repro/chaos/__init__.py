"""repro.chaos — scheduled fault plans, failure recovery, chaos harness.

Two ways in:

*Explicit* — build a :class:`FaultPlan`, hand it to a
:class:`ChaosController` after the network is finalized::

    plan = FaultPlan(name="flap", seed=1, events=(
        LinkFlap(t_ps=5 * MS, a="agg0_0", b="core0", down_ps=2 * MS),))
    ChaosController(sim, topo.net, plan)
    sim.run(until=...)
    print(sim.chaos.summary())

*Scenario cell* — a scenario spec's ``chaos:`` section hands the plan to
the matrix cell (:func:`repro.scenarios.cells.run_persistent`), which also
measures recovery.  The section names a canned scenario or a plan file
(``chaos.plan: FILE``, hashed by content into the cell's identity;
``repro chaos S --seed N --emit-plan FILE`` writes one).  ``python -m
repro chaos <scenario>`` runs the bundled ``fabric_chaos_recovery`` spec's
cells for one canned fault under the audit plane and gates on the result;
see :mod:`repro.chaos.scenarios`.

Injected drops are *budgeted*: the controller accounts every packet it eats
per flow, the auditor subtracts those budgets, so an audited chaos run
passes clean while any drop the chaos plane did **not** inject still fails
the conservation checks.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: The controller (→ ``repro.net`` → the engine) is imported on first use,
#: not to list or validate scenarios (DESIGN §16).
_HOMES = {
    "repro.chaos.controller": ("ChaosController",),
    "repro.chaos.gilbert": ("GilbertElliott",),
    "repro.chaos.plan": (
        "CreditMeterFault", "FaultEvent", "FaultPlan", "HostJitterFault",
        "LinkDown", "LinkFlap", "LinkUp", "LossBurst", "SwitchBlackout",
        "event_from_dict"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _HOMES)
