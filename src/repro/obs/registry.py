"""Metric primitives and the per-simulation registry.

A :class:`MetricsRegistry` hangs off ``Simulator.metrics`` and collects four
kinds of signal:

* **Counters / gauges / histograms** — named, created on demand.  Histograms
  are log-bucketed (powers of two) so a flow-completion-time distribution
  costs O(60) ints no matter how many flows complete.
* **Time series** — each :class:`Series` carries its own timestamps, fed
  either by periodic *snapshots* (the registry polls registered source
  callables) or by the :mod:`repro.metrics.timeseries` samplers mirroring
  their readings in.
* **Flow spans** (:mod:`repro.obs.spans`) — per-flow lifecycle timelines.
* **Port aggregates** — the registry does *not* hook the per-packet path.
  Ports and queues already maintain exact counters
  (:class:`~repro.net.port.PortStats`, ``_QueueStats``); the registry reads
  them at snapshot/finalize time, so enabling metrics leaves the transmit
  fast path intact.  The one event-driven signal with no existing counter is
  credit throttling: ports bump ``registry.credit_throttled`` directly from
  their (rare) bucket-sleep branch.

Snapshots are self-limiting: the periodic snapshot event re-arms only while
*other* events remain pending, so a run-to-quiescence ``sim.run()`` still
terminates, and :meth:`MetricsRegistry.finalize` captures one last snapshot
at whatever time the run stopped.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.units import MS

#: Ambient snapshot cadence (overridable via ``REPRO_METRICS_INTERVAL_PS``).
DEFAULT_SNAPSHOT_INTERVAL_PS = 1 * MS


class Counter:
    """A named monotonically-increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named last-value-wins number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Log-bucketed (base-2) histogram of non-negative samples.

    Bucket ``b`` holds values ``v`` with ``v.bit_length() == b``, i.e.
    ``[2**(b-1), 2**b)`` for ``b >= 1`` and exactly 0 for ``b == 0`` — about
    60 buckets cover the whole picosecond range.  Exact count/sum/min/max
    ride alongside, so only percentiles are approximate (reported at bucket
    upper edges, clamped to the observed min/max).
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0
        self.vmin: Optional[int] = None
        self.vmax: Optional[int] = None
        self.buckets: Dict[int, int] = {}

    def record(self, value) -> None:
        v = int(value)
        if v < 0:
            v = 0
        b = v.bit_length()
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1
        self.total += v
        if self.vmin is None or v < self.vmin:
            self.vmin = v
        if self.vmax is None or v > self.vmax:
            self.vmax = v

    def percentile(self, pct: float) -> Optional[int]:
        """Approximate percentile: the upper edge of the covering bucket."""
        if not self.count:
            return None
        target = max(1, -(-self.count * pct // 100))  # ceil
        cum = 0
        for b in sorted(self.buckets):
            cum += self.buckets[b]
            if cum >= target:
                edge = 0 if b == 0 else (1 << b) - 1
                return max(self.vmin, min(self.vmax, edge))
        return self.vmax  # pragma: no cover - cum always reaches count

    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, name: str, data: dict) -> "Histogram":
        h = cls(name)
        h.count = int(data.get("count", 0))
        h.total = int(data.get("sum", 0))
        h.vmin = data.get("min")
        h.vmax = data.get("max")
        h.buckets = {int(b): int(n)
                     for b, n in (data.get("buckets") or {}).items()}
        return h

    def merge_dict(self, data: dict) -> None:
        """Fold a shipped ``as_dict`` summary into this histogram."""
        self.count += int(data.get("count", 0))
        self.total += int(data.get("sum", 0))
        for field in ("min", "max"):
            v = data.get(field)
            if v is None:
                continue
            if field == "min":
                self.vmin = v if self.vmin is None else min(self.vmin, v)
            else:
                self.vmax = v if self.vmax is None else max(self.vmax, v)
        for b, n in (data.get("buckets") or {}).items():
            b = int(b)
            self.buckets[b] = self.buckets.get(b, 0) + int(n)


class Series:
    """One named time series; timestamps and values stay aligned."""

    __slots__ = ("name", "times_ps", "values")

    def __init__(self, name: str):
        self.name = name
        self.times_ps: List[int] = []
        self.values: List[float] = []

    def append(self, t_ps: int, value) -> None:
        self.times_ps.append(t_ps)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times_ps)


class MetricsRegistry:
    """All observability state for one simulator.  See module docstring."""

    def __init__(self, sim, snapshot_interval_ps: Optional[int] = None):
        self.sim = sim
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.series: Dict[str, Series] = {}
        #: Flow lifecycle event log: (t_ps, event, fid) tuples in emit order.
        self.events: List[tuple] = []
        self.spans: List = []
        self.ports: List = []
        #: Bumped directly by ports when only credits wait and the token
        #: bucket is short (the transmitter sleep branch).
        self.credit_throttled = 0
        self.snapshot_interval_ps = (DEFAULT_SNAPSHOT_INTERVAL_PS
                                     if snapshot_interval_ps is None
                                     else snapshot_interval_ps)
        self.snapshots_taken = 0
        self._snapshot_sources: List[tuple] = []  # (Series, callable)
        self._snapshot_event = None
        self._samplers: List = []
        self._have_port_sources = False
        self._finalized = False

    @classmethod
    def attach(cls, sim, snapshot_interval_ps: Optional[int] = None
               ) -> "MetricsRegistry":
        """The simulator's registry, created (and claimed by any open
        :func:`repro.obs.capture`) on first use."""
        reg = sim.metrics
        if reg is None:
            reg = cls(sim, snapshot_interval_ps)
            sim.metrics = reg
            from repro.obs import plane
            plane._note_registry(reg)
        return reg

    # -- named instruments --------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name)
        return h

    def add_series(self, name: str) -> Series:
        s = self.series.get(name)
        if s is None:
            s = self.series[name] = Series(name)
        return s

    def add_source(self, name: str, fn: Callable[[], float]) -> Series:
        """Register a callable polled into ``name`` at every snapshot."""
        series = self.add_series(name)
        self._snapshot_sources.append((series, fn))
        return series

    # -- flows and spans ----------------------------------------------------
    def register_flow(self, flow):
        """Open a :class:`FlowSpan` for ``flow`` (``Flow.__init__`` calls
        this when ``sim.metrics`` exists)."""
        from repro.obs.spans import FlowSpan

        span = FlowSpan(flow, self)
        flow.obs_span = span
        self.spans.append(span)
        return span

    def log_event(self, t_ps: int, event: str, fid: int) -> None:
        self.events.append((t_ps, event, fid))

    # -- network attachment --------------------------------------------------
    def attach_network(self, net) -> None:
        """Observe every port of ``net`` (idempotent per port)."""
        for port in net.ports:
            if port.obs is None:
                port.obs = self
                self.ports.append(port)
        if not self._have_port_sources and self.ports:
            self._have_port_sources = True
            ports = self.ports  # shared, so later attaches are covered too
            self.add_source("queue.data.bytes.max",
                            lambda: max((p.data_queue.bytes for p in ports),
                                        default=0))
            self.add_source("queue.data.bytes.total",
                            lambda: sum(p.data_queue.bytes for p in ports))
            self.add_source("queue.credit.pkts.total",
                            lambda: sum(len(p.credit_queue) for p in ports))
            self.add_source("tx.data.bytes.total",
                            lambda: sum(p.stats.data_bytes_sent
                                        for p in ports))
            self.add_source("tx.credit.pkts.total",
                            lambda: sum(p.stats.credit_pkts_sent
                                        for p in ports))

    # -- sampler factories (the repro.metrics.timeseries migration) ---------
    def sample_queue(self, port, interval_ps: int, name: Optional[str] = None):
        """A :class:`QueueSampler` whose readings mirror into a registry
        series (default name ``queue.<port.name>.bytes``)."""
        from repro.metrics.timeseries import QueueSampler

        series = self.add_series(name or f"queue.{port.name}.bytes")
        sampler = QueueSampler(self.sim, port, interval_ps, series=series)
        self._samplers.append(sampler)
        return sampler

    def sample_throughput(self, flows, interval_ps: int,
                          name_prefix: str = "throughput"):
        """A :class:`FlowThroughputSampler` mirroring per-flow goodput into
        ``<prefix>.f<fid>_bps`` series."""
        from repro.metrics.timeseries import FlowThroughputSampler

        sampler = FlowThroughputSampler(self.sim, flows, interval_ps,
                                        registry=self,
                                        name_prefix=name_prefix)
        self._samplers.append(sampler)
        return sampler

    # -- snapshots -----------------------------------------------------------
    def start_snapshots(self, interval_ps: Optional[int] = None) -> None:
        if interval_ps is not None:
            self.snapshot_interval_ps = interval_ps
        if self.snapshot_interval_ps and self._snapshot_event is None:
            self._snapshot_event = self.sim.schedule(
                self.snapshot_interval_ps, self._snapshot_tick)

    def _snapshot_tick(self) -> None:
        self._snapshot_event = None
        self.snapshot()
        # Re-arm only while other work remains: a lone self-rescheduling
        # event would keep a run-to-quiescence ``sim.run()`` alive forever.
        if self.sim.pending() > 0:
            self._snapshot_event = self.sim.schedule(
                self.snapshot_interval_ps, self._snapshot_tick)

    def snapshot(self) -> None:
        """Poll every registered source once, at the current sim time."""
        now = self.sim.now
        for series, fn in self._snapshot_sources:
            times = series.times_ps
            if times and times[-1] == now:
                continue
            times.append(now)
            series.values.append(fn())
        self.snapshots_taken += 1

    # -- finalize ------------------------------------------------------------
    def finalize(self) -> "MetricsRegistry":
        """Stop sampling, take a last snapshot, fold port/queue/span state
        into final counters.  Idempotent."""
        if self._finalized:
            return self
        self._finalized = True
        if self._snapshot_event is not None:
            self._snapshot_event.cancel()
            self._snapshot_event = None
        for sampler in self._samplers:
            sampler.stop()
        self.snapshot()
        self._flush_counters()
        return self

    def _set(self, name: str, value: int) -> None:
        self.counter(name).value = value

    def _flush_counters(self) -> None:
        ports = self.ports
        if ports:
            self._set("net.data.tx_pkts",
                      sum(p.stats.data_pkts_sent for p in ports))
            self._set("net.data.tx_bytes",
                      sum(p.stats.data_bytes_sent for p in ports))
            self._set("net.credit.tx_pkts",
                      sum(p.stats.credit_pkts_sent for p in ports))
            self._set("net.credit.tx_bytes",
                      sum(p.stats.credit_bytes_sent for p in ports))
            self._set("net.data.enqueued",
                      sum(p.data_queue.stats.enqueued for p in ports))
            self._set("net.data.dropped",
                      sum(p.data_queue.stats.dropped for p in ports))
            self._set("net.data.ecn_marked",
                      sum(p.data_queue.stats.ecn_marked for p in ports))
            self._set("net.credit.enqueued",
                      sum(p.credit_queue.stats.enqueued for p in ports))
            self._set("net.credit.dropped",
                      sum(p.credit_queue.stats.dropped for p in ports))
            phantom = sum(p.phantom.marks for p in ports
                          if p.phantom is not None)
            if phantom:
                self._set("net.phantom.ecn_marked", phantom)
        self._set("net.credit.throttled", self.credit_throttled)
        spans = self.spans
        self._set("flow.registered", len(spans))
        self._set("flow.started",
                  sum(1 for s in spans if s.start_ps is not None))
        self._set("flow.completed",
                  sum(1 for s in spans if s.finish_ps is not None))
        self._set("flow.stopped",
                  sum(1 for s in spans if s.stop_ps is not None))
        ep = [s.flow for s in spans if hasattr(s.flow, "credits_sent")]
        if ep:
            self._set("ep.credits_sent", sum(f.credits_sent for f in ep))
            self._set("ep.credits_received",
                      sum(f.credits_received for f in ep))
            self._set("ep.credits_used", sum(f.credits_used for f in ep))
            self._set("ep.credits_wasted", sum(f.credits_wasted for f in ep))
        updates = sum(s.feedback_updates for s in spans)
        if updates:
            self._set("ep.feedback_updates", updates)
        self.gauge("sim.now_ps").set(self.sim.now)
        self.gauge("sim.events_processed").set(self.sim.events_processed)

    # -- summaries -----------------------------------------------------------
    def as_dict(self) -> dict:
        """Picklable/JSON-able summary (the ``TaskResult.metrics`` shape)."""
        return {
            "runs": 1,
            "flows": len(self.spans),
            "snapshots": self.snapshots_taken,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.as_dict()
                           for n, h in sorted(self.histograms.items())},
            "series": {n: {"times_ps": list(s.times_ps),
                           "values": list(s.values)}
                       for n, s in sorted(self.series.items())},
            "events": [list(e) for e in self.events],
            "spans": [s.as_dict() for s in self.spans],
        }

    def summary(self) -> dict:
        """Finalize and summarize in one step."""
        return self.finalize().as_dict()


# -- summary algebra (merging registries and shipped task summaries) ---------

def empty_summary() -> dict:
    return {"runs": 0, "flows": 0, "snapshots": 0, "counters": {},
            "gauges": {}, "histograms": {}, "series": {}, "events": [],
            "spans": []}


def merge_summaries(summaries: Sequence[Optional[dict]]) -> dict:
    """Sum counters, merge histograms, concatenate spans/events.  Series
    keep per-run identity: a name collision gets a ``#<run>`` suffix so two
    runs' time series never interleave."""
    out = empty_summary()
    for summary in summaries:
        if not summary:
            continue
        out["runs"] += summary.get("runs", 0)
        out["flows"] += summary.get("flows", 0)
        out["snapshots"] += summary.get("snapshots", 0)
        for name, value in summary.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + value
        out["gauges"].update(summary.get("gauges", {}))
        for name, data in summary.get("histograms", {}).items():
            mine = out["histograms"].get(name)
            if mine is None:
                out["histograms"][name] = Histogram.from_dict(name,
                                                              data).as_dict()
            else:
                h = Histogram.from_dict(name, mine)
                h.merge_dict(data)
                out["histograms"][name] = h.as_dict()
        for name, data in summary.get("series", {}).items():
            key = name
            n = 2
            while key in out["series"]:
                key = f"{name}#{n}"
                n += 1
            out["series"][key] = data
        out["events"].extend(summary.get("events", ()))
        out["spans"].extend(summary.get("spans", ()))
    return out


def format_summary(summary: dict, limit: int = 30) -> str:
    """Human-readable digest (what the CLI prints to stderr)."""
    lines = [f"repro.obs: {summary.get('flows', 0)} flow(s) across "
             f"{summary.get('runs', 0)} run(s), "
             f"{summary.get('snapshots', 0)} snapshot(s), "
             f"{len(summary.get('events', ()))} span event(s), "
             f"{len(summary.get('series', {}))} series"]
    counters = summary.get("counters", {})
    if counters:
        lines.append("  counters:")
        for name in sorted(counters)[:limit]:
            lines.append(f"    {name:<28s} {counters[name]:>16,}")
        if len(counters) > limit:
            lines.append(f"    ... {len(counters) - limit} more")
    hists = summary.get("histograms", {})
    if hists:
        lines.append("  histograms:")
        for name in sorted(hists):
            h = Histogram.from_dict(name, hists[name])
            if not h.count:
                continue
            lines.append(
                f"    {name:<28s} n={h.count:,} mean={h.mean():,.0f} "
                f"p50={h.percentile(50):,} p99={h.percentile(99):,} "
                f"max={h.vmax:,}")
    return "\n".join(lines)
