"""repro.obs — unified metrics, flow-span tracing, and exporters.

One observability plane for every simulation run.  Three layers:

*Registry* — :class:`MetricsRegistry` holds named counters, gauges,
log-bucketed histograms, and time series; it attaches to a
:class:`~repro.sim.engine.Simulator` (``sim.metrics``), polls queue/transmit
statistics from the network's ports on periodic snapshots, and gives every
flow a :class:`FlowSpan` lifecycle timeline (start → first credit → first
data → stop → completion, plus credit round-trip samples).

*Activation* — off by default; a run with metrics disabled schedules no
snapshot events and takes a single ``is None`` branch per instrumentation
point, so golden traces stay bit-identical.  Turn it on explicitly
(:meth:`MetricsRegistry.attach`), ambiently (:func:`capture`, used by
``repro run --metrics`` / ``repro obs``), or process-wide
(``REPRO_METRICS=1``).  Inside an active scope every
:meth:`Network.finalize` wires the network into the simulator's registry
automatically via :func:`maybe_attach`.

*Export* — :mod:`repro.obs.export` writes the registry summary as a JSONL
event stream, CSV time series, or Prometheus text, and dumps
:class:`~repro.net.trace.PortTracer` records as pcap-lite JSONL; the
:mod:`repro.obs.dashboard` renders live sparkline panels during long runs.

Captures nest like :mod:`repro.audit`'s: through the :data:`PROBE` this
module exports (:mod:`repro.runtime.probes`) the :mod:`repro.runtime`
scheduler opens one per sweep task (in the worker process, if parallel) and
ships the summary dict back on ``TaskResult.probes["metrics"]``; an outer
CLI capture does not double count registries an inner capture already
claimed.

A fourth, orthogonal plane lives in :mod:`repro.obs.trace`: cross-layer
*causal* tracing (wall-clock and sim-clock spans across the runtime
scheduler, matrix cells, and sim phases), activated by
``--trace``/``REPRO_TRACE`` and exported as validated JSONL plus
Chrome/Perfetto JSON.  Metrics aggregate *what* the simulation did; the
trace shows *where the wall-clock time went* doing it.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Optional

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    empty_summary,
    format_summary,
    merge_summaries,
)
from repro.obs.spans import FlowSpan
from repro.runtime.config import env_flag, env_number

__all__ = [
    "PROBE",
    "Counter", "FlowSpan", "Gauge", "Histogram", "MetricsRegistry", "Series",
    "capture", "default_interval_ps", "is_active", "maybe_attach",
    "empty_summary", "format_summary", "merge_summaries",
]

_capture_depth = 0
#: Live registries claimed by the open captures, oldest scope first.
_captured: List[MetricsRegistry] = []
#: Options of the innermost open capture (dashboard stream, tracing flag).
_opts: List[dict] = []


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
    summary, starts periodic snapshots on first attach, and honours the
    innermost capture's dashboard/trace options.
    """
    if not is_active():
        return None
    reg = net.sim.metrics
    fresh = reg is None
    if fresh:
        reg = MetricsRegistry.attach(net.sim,
                                     snapshot_interval_ps=default_interval_ps())
    reg.attach_network(net)
    opts = _opts[-1] if _opts else {}
    if opts.get("trace"):
        reg.trace_network(net)
    if fresh:
        if opts.get("dashboard") is not None:
            from repro.obs.dashboard import Dashboard
            Dashboard(reg, opts["dashboard"])
        reg.start_snapshots()
    return reg


def _note_registry(reg: MetricsRegistry) -> None:
    """Claim an explicitly-attached registry for the open capture, if any."""
    if _capture_depth > 0 and reg not in _captured:
        _captured.append(reg)


class capture:
    """Capture scope over every registry attached inside it (and not
    claimed by a scope nested deeper).

    ``opts`` (``dashboard=<stream>``, ``trace=True``) apply to registries
    created inside this scope.  After exit, ``.summary`` holds the merged
    summary dict and ``.registries`` the finalized registries (for e.g.
    pcap-lite export of their tracers).
    """

    #: The merged summary, once the scope has closed (``payload`` is the
    #: same dict under the probe protocol's name).
    summary: Optional[dict] = None
    payload: Optional[dict] = None

    def __init__(self, **opts):
        self._capture_opts = opts
        self.registries: List[MetricsRegistry] = []

    def __enter__(self) -> "capture":
        global _capture_depth
        _capture_depth += 1
        _opts.append(self._capture_opts)
        self._marker = len(_captured)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _capture_depth
        scoped = _captured[self._marker:]
        del _captured[self._marker:]
        _capture_depth = max(0, _capture_depth - 1)
        _opts.pop()
        self.summary = self.payload = merge_summaries(
            [r.summary() for r in scoped])
        self.registries = scoped
        return False


#: This plane's face to :mod:`repro.runtime.probes`.
PROBE = SimpleNamespace(name="metrics", capture=capture, active=is_active,
                        merge=merge_summaries, format=format_summary)
