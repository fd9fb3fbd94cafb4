"""Periodic samplers for queues and per-flow throughput, plus convergence
detection used by the Fig 2/13/16 experiments.

Both samplers are :mod:`repro.obs`-aware: constructed through the registry's
factories (:meth:`MetricsRegistry.sample_queue` /
:meth:`~MetricsRegistry.sample_throughput`) they mirror every reading into a
named registry :class:`~repro.obs.registry.Series`, so the same values flow
to the ``--obs-jsonl`` export that the experiment reads locally.  ``stop()``
is idempotent and captures one final sample at stop time so the last partial
interval is not silently dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.sim.units import SEC

if TYPE_CHECKING:  # fluid cells fold rows with repro.metrics, engine-free
    from repro.sim.engine import Simulator


class QueueSampler:
    """Samples a port's data-queue occupancy every ``interval_ps``.

    ``samples`` is a list of (time_ps, bytes).  The queue's own stats object
    already tracks max and the exact time-weighted average; this sampler
    exists for time-series plots (Fig 13).  ``series``, when given, receives
    a mirror of every sample (the :mod:`repro.obs` migration path).
    """

    def __init__(self, sim: Simulator, port, interval_ps: int, series=None):
        self.sim = sim
        self.port = port
        self.interval_ps = interval_ps
        self.samples: List[tuple] = []
        self.series = series
        self._event = sim.schedule(0, self._tick)

    def _sample(self) -> None:
        now = self.sim.now
        occupancy = self.port.data_queue.bytes
        self.samples.append((now, occupancy))
        if self.series is not None:
            self.series.append(now, occupancy)

    def _tick(self) -> None:
        self._sample()
        self._event = self.sim.schedule(self.interval_ps, self._tick)

    def stop(self) -> None:
        """Idempotent; takes a final sample if time advanced past the last."""
        if self._event is None:
            return
        self._event.cancel()
        self._event = None
        if not self.samples or self.samples[-1][0] < self.sim.now:
            self._sample()

    def max_bytes(self) -> int:
        return max((b for _, b in self.samples), default=0)


class FlowThroughputSampler:
    """Per-flow goodput time series from ``bytes_delivered`` deltas.

    ``series[flow]`` is a list of throughputs in bit/s, one per interval.
    Constructed with a ``registry``, each flow's readings also mirror into a
    ``<name_prefix>.f<fid>_bps`` registry series.
    """

    def __init__(self, sim: Simulator, flows: Sequence, interval_ps: int,
                 registry=None, name_prefix: str = "throughput"):
        self.sim = sim
        self.flows = list(flows)
        self.interval_ps = interval_ps
        self.series: Dict[object, List[float]] = {f: [] for f in self.flows}
        self.times_ps: List[int] = []
        self._last: Dict[object, int] = {f: f.bytes_delivered for f in self.flows}
        self._registry = registry
        self._name_prefix = name_prefix
        self._mirrors: Dict[object, object] = {}
        if registry is not None:
            for f in self.flows:
                self._mirrors[f] = registry.add_series(
                    f"{name_prefix}.f{f.fid}_bps")
        self._last_tick_ps = sim.now
        self._event = sim.schedule(interval_ps, self._tick)

    def track(self, flow) -> None:
        """Start tracking a flow that was created after the sampler."""
        self.flows.append(flow)
        self.series[flow] = [0.0] * len(self.times_ps)
        self._last[flow] = flow.bytes_delivered
        if self._registry is not None:
            mirror = self._registry.add_series(
                f"{self._name_prefix}.f{flow.fid}_bps")
            for t in self.times_ps:
                mirror.append(t, 0.0)
            self._mirrors[flow] = mirror

    def _sample(self, elapsed_ps: int) -> None:
        now = self.sim.now
        self.times_ps.append(now)
        for flow in self.flows:
            delta = flow.bytes_delivered - self._last[flow]
            self._last[flow] = flow.bytes_delivered
            rate = delta * 8 * SEC / elapsed_ps
            self.series[flow].append(rate)
            mirror = self._mirrors.get(flow)
            if mirror is not None:
                mirror.append(now, rate)

    def _tick(self) -> None:
        self._sample(self.interval_ps)
        self._last_tick_ps = self.sim.now
        self._event = self.sim.schedule(self.interval_ps, self._tick)

    def stop(self) -> None:
        """Idempotent; closes the trailing partial interval with its true
        elapsed time so the final reading is a rate, not a truncation."""
        if self._event is None:
            return
        self._event.cancel()
        self._event = None
        elapsed = self.sim.now - self._last_tick_ps
        if elapsed > 0:
            self._sample(elapsed)


def convergence_time_ps(
    times_ps: Sequence[int],
    series: Sequence[Sequence[float]],
    fair_share_bps: float,
    tolerance: float = 0.2,
    sustain_intervals: int = 3,
    start_ps: int = 0,
) -> Optional[int]:
    """First time (after ``start_ps``) at which *every* flow stays within
    ``tolerance`` of ``fair_share_bps`` for ``sustain_intervals`` consecutive
    samples.  Returns the timestamp, or None if never converged.
    """
    if not series or not times_ps:
        return None
    n = len(times_ps)
    run = 0
    for i in range(n):
        if times_ps[i] < start_ps:
            continue
        ok = all(
            abs(s[i] - fair_share_bps) <= tolerance * fair_share_bps
            for s in series
            if i < len(s)
        )
        run = run + 1 if ok else 0
        if run >= sustain_intervals:
            return times_ps[i - sustain_intervals + 1]
    return None
