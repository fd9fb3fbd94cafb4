"""Live terminal dashboard over a :class:`MetricsRegistry`.

The dashboard hooks the registry's ``on_snapshot`` callback and, throttled by
wall-clock time (simulated time can tick millions of snapshots per second of
real time), repaints a small panel of :mod:`repro.viz` sparklines on the
output stream: queue occupancy per tracked port, per-flow transmit rate
derived from the snapshot series, FCT percentiles from the ``flow.fct_ps``
histogram, and a drops/marks/throttles counter strip.

It is deliberately dumb about terminals — it emits plain text blocks
separated by a header line rather than cursor-addressed repaints, so output
stays useful when piped to a file or a CI log.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.sim.units import MS
from repro.viz import sparkline

#: How many trailing samples each sparkline shows.
PANEL_WIDTH = 48


def _fmt_time(t_ps: int) -> str:
    return f"{t_ps / MS:.3f}ms"


class Dashboard:
    """Renders registry snapshots as text panels.  See module docstring."""

    def __init__(self, registry, out, min_interval_s: float = 0.25,
                 ascii_only: bool = False, clock=time.monotonic):
        self.registry = registry
        self.out = out
        self.min_interval_s = min_interval_s
        self.ascii_only = ascii_only
        self.renders = 0
        self._clock = clock
        self._last_render_s: Optional[float] = None
        self._prev_hook = registry.on_snapshot
        registry.on_snapshot = self._on_snapshot

    # -- wiring ---------------------------------------------------------------
    def _on_snapshot(self, registry) -> None:
        if self._prev_hook is not None:
            self._prev_hook(registry)
        now_s = self._clock()
        if (self._last_render_s is not None
                and now_s - self._last_render_s < self.min_interval_s):
            return
        self._last_render_s = now_s
        self.out.write(self.render() + "\n")
        flush = getattr(self.out, "flush", None)
        if flush is not None:
            flush()
        self.renders += 1

    def close(self) -> None:
        """Detach from the registry, restoring any prior snapshot hook."""
        if self.registry.on_snapshot == self._on_snapshot:
            self.registry.on_snapshot = self._prev_hook

    # -- rendering ------------------------------------------------------------
    def render(self) -> str:
        reg = self.registry
        lines: List[str] = [
            f"== repro.obs t={_fmt_time(reg.sim.now)} "
            f"events={reg.sim.events_processed} "
            f"snapshots={reg.snapshots_taken} =="
        ]
        lines.extend(self._queue_panel())
        lines.extend(self._rate_panel())
        lines.extend(self._fct_panel())
        lines.extend(self._counter_panel())
        return "\n".join(lines)

    def _spark(self, values) -> str:
        return sparkline(values[-PANEL_WIDTH:], lo=0,
                         ascii_only=self.ascii_only)

    def _queue_panel(self) -> List[str]:
        lines = []
        for name, series in sorted(self.registry.series.items()):
            if not name.startswith("queue.") or not series.values:
                continue
            peak = max(series.values)
            lines.append(f"  {name:<28} |{self._spark(series.values)}| "
                         f"now={series.values[-1]} max={peak}")
        return lines

    def _rate_panel(self) -> List[str]:
        """Aggregate transmit rate in Gbit/s from tx-bytes snapshot deltas."""
        series = self.registry.series.get("tx.data.bytes.total")
        if series is None or len(series) < 2:
            return []
        rates = []
        times, values = series.times_ps, series.values
        for i in range(1, len(values)):
            dt_ps = times[i] - times[i - 1]
            if dt_ps <= 0:
                continue
            # bytes/ps * 8 -> bits/ps; * 1e3 -> Gbit/s (1 Gbit/s = 1e-3 bit/ps)
            rates.append((values[i] - values[i - 1]) * 8e3 / dt_ps)
        if not rates:
            return []
        return [f"  {'tx rate (Gbps)':<28} |{self._spark(rates)}| "
                f"now={rates[-1]:.2f} peak={max(rates):.2f}"]

    def _fct_panel(self) -> List[str]:
        hist = self.registry.histograms.get("flow.fct_ps")
        if hist is None or hist.count == 0:
            return []
        return [f"  FCT n={hist.count} p50={_fmt_time(hist.percentile(50))} "
                f"p99={_fmt_time(hist.percentile(99))} "
                f"max={_fmt_time(hist.vmax)}"]

    def _counter_panel(self) -> List[str]:
        drops = marks = 0
        for port in self.registry.ports:
            for q in (port.data_queue, port.credit_queue):
                if q is not None:
                    drops += q.stats.dropped
                    marks += getattr(q.stats, "ecn_marked", 0)
        return [f"  drops={drops} ecn_marks={marks} "
                f"credit_throttled={self.registry.credit_throttled}"]
