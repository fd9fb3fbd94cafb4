"""repro.audit — runtime verification for every simulation run.

Two ways in:

*Explicit* — construct a :class:`NetworkAuditor`, attach networks, read the
:class:`AuditReport`::

    auditor = NetworkAuditor(sim, buffer_bound_bytes=bound)
    auditor.attach_network(topo.net)
    ...build flows, run...
    report = auditor.finalize()
    assert report.ok, report.format()

*Ambient* — activate auditing for a region of code (or set ``REPRO_AUDIT=1``
for a whole process); every :meth:`Network.finalize` inside it then attaches
an auditor automatically, and :func:`capture` collects the merged verdict::

    with audit.capture() as cap:
        run_experiment()
    print(audit.format_summary(cap.summary))

The ambient path is what ``repro.cli --audit`` and the
:mod:`repro.runtime` scheduler use, through the :data:`PROBE` this module
exports (:mod:`repro.runtime.probes`): each sweep task runs inside a
capture (in its worker process, if parallel) and its summary dict travels
back on ``TaskResult.probes["audit"]``.

Captures nest like a stack: an inner capture removes its auditors from the
outer capture's view, so a CLI-level capture around a sweep does not double
count the per-task summaries the scheduler already collected.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional

from repro.audit.auditor import NetworkAuditor
from repro.audit.report import (
    AuditReport,
    Violation,
    empty_summary,
    format_summary,
    merge_summaries,
)
from repro.runtime.config import env_flag

__all__ = [
    "PROBE", "AuditReport", "NetworkAuditor", "Violation",
    "capture", "is_active", "maybe_attach",
    "empty_summary", "format_summary", "merge_summaries",
]

_capture_depth = 0
#: Live auditors claimed by the open captures, oldest scope first.
_captured: List[NetworkAuditor] = []


def is_active() -> bool:
    """True when auditors should attach: inside a capture or REPRO_AUDIT=1."""
    return _capture_depth > 0 or env_flag("REPRO_AUDIT")


def maybe_attach(net) -> Optional[NetworkAuditor]:
    """Attach an auditor to ``net`` if auditing is active (else no-op).

    Called by :meth:`repro.topology.network.Network.finalize`.  Reuses the
    simulator's existing auditor so multi-network simulations share one
    report.  Auditors are only retained for collection while a capture is
    open; under plain ``REPRO_AUDIT=1`` the auditor lives on ``sim.auditor``
    and nothing global accumulates.
    """
    if not is_active():
        return None
    auditor = net.sim.auditor
    if auditor is None:
        auditor = NetworkAuditor(net.sim)
        if _capture_depth > 0:
            _captured.append(auditor)
    auditor.attach_network(net)
    return auditor


class capture:
    """Capture scope: every auditor attached inside it (and not claimed by
    a scope nested deeper) is finalized when it closes; ``.summary`` then
    holds their merged verdict."""

    #: The merged summary, once the scope has closed (``payload`` is the
    #: same dict under the probe protocol's name).
    summary: Optional[dict] = None
    payload: Optional[dict] = None

    def __enter__(self) -> "capture":
        global _capture_depth
        _capture_depth += 1
        self._marker = len(_captured)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _capture_depth
        scoped = _captured[self._marker:]
        del _captured[self._marker:]
        _capture_depth = max(0, _capture_depth - 1)
        self.summary = self.payload = merge_summaries(
            [a.finalize().summary() for a in scoped])
        return False


#: This plane's face to :mod:`repro.runtime.probes`.
PROBE = SimpleNamespace(name="audit", capture=capture, active=is_active,
                        merge=merge_summaries, format=format_summary)
