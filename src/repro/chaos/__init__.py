"""repro.chaos — scheduled fault plans, failure recovery, chaos harness.

Three ways in:

*Explicit* — build a :class:`FaultPlan`, hand it to a
:class:`ChaosController` after the network is finalized::

    plan = FaultPlan(name="flap", seed=1, events=(
        LinkFlap(t_ps=5 * MS, a="agg0_0", b="core0", down_ps=2 * MS),))
    ChaosController(sim, topo.net, plan)
    sim.run(until=...)
    print(sim.chaos.summary())

*Ambient* — export ``REPRO_CHAOS=/path/to/plan.json`` and every
:meth:`Network.finalize` in the process attaches the plan automatically
(the plan file carries its seed — ``repro chaos S --seed N --emit-plan
FILE`` writes one with any seed; ``REPRO_CHAOS_LOG=1`` narrates actions on
stderr).  This is how an unmodified experiment runs under fault injection.

*Scenario cell* — a scenario spec's ``chaos:`` section hands the plan to
the matrix cell (:func:`repro.scenarios.cells.run_persistent`), which also
measures recovery.  ``python -m repro chaos <scenario>`` runs the bundled
``fabric_chaos_recovery`` spec's cells for one canned fault under the audit
plane and gates on the result; see :mod:`repro.chaos.scenarios`.

Injected drops are *budgeted*: the controller accounts every packet it eats
per flow, the auditor subtracts those budgets, so an audited chaos run
passes clean while any drop the chaos plane did **not** inject still fails
the conservation checks.
"""

from __future__ import annotations

import os
import sys

from repro._lazy import lazy_exports
from repro.runtime.config import env_flag, env_text

#: The controller (→ ``repro.net`` → the engine) is imported on first use,
#: not to list or validate scenarios (DESIGN §16); the hooks' home is here.
_HOMES = {
    "repro.chaos.controller": ("ChaosController",),
    "repro.chaos.gilbert": ("GilbertElliott",),
    "repro.chaos.plan": (
        "CreditMeterFault", "FaultEvent", "FaultPlan", "HostJitterFault",
        "LinkDown", "LinkFlap", "LinkUp", "LossBurst", "SwitchBlackout",
        "event_from_dict"),
    "repro.chaos": ("is_active", "maybe_attach"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _HOMES)

#: Plan cache for the ambient path keyed on (path, mtime_ns): a sweep of N
#: tasks in one process parses the JSON once, while an edited plan file is
#: picked up without a restart.
_plan_cache: dict = {}


def is_active() -> bool:
    """True when ``REPRO_CHAOS`` names a fault-plan file."""
    return env_text("REPRO_CHAOS") is not None


def _load_env_plan(path: str):
    from repro.chaos.plan import FaultPlan

    key = (path, os.stat(path).st_mtime_ns)
    plan = _plan_cache.get(key)
    if plan is None:
        plan = FaultPlan.load(path)
        _plan_cache.clear()
        _plan_cache[key] = plan
    return plan


def maybe_attach(net):
    """Attach the ambient fault plan to ``net`` if one is configured.

    Called by :meth:`repro.topology.network.Network.finalize`.  Reuses the
    simulator's existing controller so multi-network simulations share one
    plan and one injected-drop ledger.  No-op without ``REPRO_CHAOS``.
    """
    path = env_text("REPRO_CHAOS")
    if not path:
        return None
    controller = net.sim.chaos
    if controller is not None:
        return controller.attach_network(net)
    from repro.chaos.controller import ChaosController

    plan = _load_env_plan(path)
    log = sys.stderr if env_flag("REPRO_CHAOS_LOG") else None
    return ChaosController(net.sim, net, plan, log=log)
