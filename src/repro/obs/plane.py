"""The metrics plane's activation state: capture scopes, the ambient
switch, and the hook :meth:`Network.finalize` calls (see :mod:`repro.obs`,
which re-exports all of it)."""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional

from repro.obs.registry import (
    MetricsRegistry,
    format_summary,
    merge_summaries,
)
from repro.runtime.config import env_flag, env_number

_capture_depth = 0
#: Live registries claimed by the open captures, oldest scope first.
_captured: List[MetricsRegistry] = []


def is_active() -> bool:
    """True when metrics should attach: inside a capture or REPRO_METRICS=1."""
    return _capture_depth > 0 or env_flag("REPRO_METRICS")


def default_interval_ps() -> Optional[int]:
    """Snapshot interval override from ``REPRO_METRICS_INTERVAL_PS``."""
    interval = env_number("REPRO_METRICS_INTERVAL_PS")
    return None if interval is None else max(1, interval)


def maybe_attach(net) -> Optional[MetricsRegistry]:
    """Attach a registry to ``net`` if metrics are active (else no-op).

    Called by :meth:`repro.topology.network.Network.finalize`.  Reuses the
    simulator's existing registry so multi-network simulations share one
    summary, and starts periodic snapshots on first attach.
    """
    if not is_active():
        return None
    reg = net.sim.metrics
    fresh = reg is None
    if fresh:
        reg = MetricsRegistry.attach(net.sim,
                                     snapshot_interval_ps=default_interval_ps())
    reg.attach_network(net)
    if fresh:
        reg.start_snapshots()
    return reg


def _note_registry(reg: MetricsRegistry) -> None:
    """Claim an explicitly-attached registry for the open capture, if any."""
    if _capture_depth > 0 and reg not in _captured:
        _captured.append(reg)


class capture:
    """Capture scope over every registry attached inside it (and not
    claimed by a scope nested deeper).  After exit, ``.summary`` holds
    the merged summary dict.
    """

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
            [r.summary() for r in scoped])
        return False


#: This plane's face to :mod:`repro.runtime.probes`.
PROBE = SimpleNamespace(name="metrics", capture=capture, active=is_active,
                        merge=merge_summaries, format=format_summary)
