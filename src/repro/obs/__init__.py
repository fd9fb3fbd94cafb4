"""repro.obs — unified metrics, flow-span tracing, and one export format.

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
``repro run``/``repro matrix --metrics``), or process-wide
(``REPRO_METRICS=1``).  Inside an active scope every
:meth:`Network.finalize` wires the network into the simulator's registry
automatically via :func:`maybe_attach`.

*Export* — :mod:`repro.obs.export` writes the registry summary as one
JSONL record stream (schema ``repro.obs.v1``; ``--obs-jsonl FILE`` on
``run`` and ``matrix``), with a loader and a validator.

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
Chrome/Perfetto JSON.  Its runtime layer is recorded from the same task
events the run journal writes.  Metrics aggregate *what* the simulation
did; the trace shows *where the wall-clock time went* doing it.
"""

from repro._lazy import lazy_exports

_HOMES = {
    "repro.obs.plane": (
        "PROBE", "capture", "default_interval_ps", "is_active",
        "maybe_attach"),
    "repro.obs.registry": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "Series",
        "empty_summary", "format_summary", "merge_summaries"),
    "repro.obs.spans": ("FlowSpan",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _HOMES)
