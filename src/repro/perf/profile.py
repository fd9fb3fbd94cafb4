"""Opt-in simulation profiler: where do the events go?

The profiler rides the run loop itself (``Simulator._run_profiled``): every
fired callback is **counted** by ``(module, qualname)``, and every Nth one is
additionally **wall-clock timed** (``sample_every``, default 32).  Counting
is exact; timing is sampled so the overhead stays low and — crucially — the
simulation is bit-identical with the profiler on or off, because the
profiler only observes.  A callback is named by what its heap entry held
when it popped: a :class:`~repro.sim.engine.Timer` re-arm that fires in
place counts as ``Timer._move``, not as the owner's callback.

Three ways in:

* ``python -m repro run fig10 --profile`` prints the experiment's table
  as usual plus a profile report on stderr.
* ``REPRO_PROFILE=1`` / ``RuntimeConfig(profile=True)`` makes every sweep
  task profile its own simulations — in its worker process when parallel —
  and ship a plain-dict summary back on ``TaskResult.probes["profile"]``
  (through the :data:`PROBE` this module exports to
  :mod:`repro.runtime.probes`).
* Programmatic::

      from repro.perf import profile
      with profile.profiled() as session:
          run_experiment()
      print(session.report.format())

Attachment is ambient: a session installs :data:`repro.sim.engine
.on_simulator_created` and hangs a fresh :class:`Profiler` on every
simulator built while it is active.  Sessions nest (a sweep task profiling
inside a profiled CLI run): the innermost session claims the simulator, so
no event is ever double-counted; whoever holds both summaries folds them
with :func:`merge_summaries`.
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.sim import engine

#: Default sampling stride: one precise timing per this many fired events.
DEFAULT_SAMPLE_EVERY = 32

#: Callback identity used for aggregation.
Key = Tuple[str, str]  # (module, qualname)


def _subsystem(module: str) -> str:
    """Aggregation bucket for a callback's module.

    ``repro.net.port`` -> ``net``; ``repro.sim.engine`` -> ``sim``;
    anything outside the package keeps its top-level name.
    """
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        return parts[1]
    return parts[0]


class Profiler:
    """Per-simulator event counters plus sampled callback timings.

    The run loop calls :meth:`fire` for every live event and
    :meth:`on_cancelled_reaped` for every cancelled entry it discards, so
    ``events + reaped`` accounts for every heap pop.
    """

    __slots__ = ("sample_every", "events", "reaped", "samples", "counts",
                 "_tick")

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY):
        self.sample_every = max(1, int(sample_every))
        self.events = 0
        self.reaped = 0
        self.samples = 0
        #: key -> [fire count, sampled seconds, sample count]
        self.counts: Dict[Key, list] = {}
        self._tick = 0

    def fire(self, fn, args) -> None:
        """Invoke ``fn(*args)``, counting it and sometimes timing it."""
        key = (getattr(fn, "__module__", None) or "?",
               getattr(fn, "__qualname__", None) or repr(fn))
        cell = self.counts.get(key)
        if cell is None:
            cell = self.counts[key] = [0, 0.0, 0]
        cell[0] += 1
        self.events += 1
        self._tick += 1
        if self._tick >= self.sample_every:
            self._tick = 0
            t0 = perf_counter()
            fn(*args)
            cell[1] += perf_counter() - t0
            cell[2] += 1
            self.samples += 1
        else:
            fn(*args)

    def on_cancelled_reaped(self) -> None:
        """A cancelled heap entry was popped and discarded."""
        self.reaped += 1


class ProfileReport:
    """Aggregate over one or more profilers (or shipped task summaries)."""

    def __init__(self):
        self.events = 0
        self.reaped = 0
        self.samples = 0
        self.simulators = 0
        self.wall_s = 0.0
        self.counts: Dict[Key, list] = {}

    # -- accumulation ------------------------------------------------------
    def _merge_counts(self, counts: Dict[Key, list]) -> None:
        mine = self.counts
        for key, (n, secs, m) in counts.items():
            cell = mine.get(key)
            if cell is None:
                mine[key] = [n, secs, m]
            else:
                cell[0] += n
                cell[1] += secs
                cell[2] += m

    def add_profiler(self, prof: Profiler) -> None:
        self.events += prof.events
        self.reaped += prof.reaped
        self.samples += prof.samples
        self.simulators += 1
        self._merge_counts(prof.counts)

    def add_summary(self, summary: dict) -> None:
        """Fold in a plain-dict summary shipped from a (worker) task.

        Wall time does not add: an enclosing session's window already
        covers the tasks that ran inside it, so the longest window wins.
        """
        self.wall_s = max(self.wall_s, summary.get("wall_s", 0.0))
        self.events += summary.get("events", 0)
        self.reaped += summary.get("reaped", 0)
        self.samples += summary.get("samples", 0)
        self.simulators += summary.get("simulators", 0)
        self._merge_counts({
            (mod, qual): [n, secs, m]
            for mod, qual, n, secs, m in summary.get("callbacks", ())
        })

    # -- views -------------------------------------------------------------
    def by_subsystem(self) -> Dict[str, int]:
        """Fired-event counts bucketed per subsystem, descending."""
        out: Dict[str, int] = {}
        for (module, _), (n, _, _) in self.counts.items():
            bucket = _subsystem(module)
            out[bucket] = out.get(bucket, 0) + n
        return dict(sorted(out.items(), key=lambda kv: -kv[1]))

    def top_callbacks(self, limit: int = 10) -> List[tuple]:
        """``(qualname, count, est_seconds)`` rows, by count, descending.

        ``est_seconds`` extrapolates the sampled timings to the full count
        (``None`` when a callback was never sampled).
        """
        rows = []
        for (_, qual), (n, secs, m) in self.counts.items():
            est = secs * (n / m) if m else None
            rows.append((qual, n, est))
        rows.sort(key=lambda r: -r[1])
        return rows[:limit]

    def _fired(self, suffix: str) -> int:
        """Events fired by callbacks whose qualname ends in ``suffix``."""
        return sum(n for (_, qual), (n, _, _) in self.counts.items()
                   if qual.endswith(suffix))

    def as_dict(self) -> dict:
        """Picklable/JSON-able summary (the profile probe's payload)."""
        return {
            "events": self.events,
            "reaped": self.reaped,
            "samples": self.samples,
            "simulators": self.simulators,
            "wall_s": self.wall_s,
            "callbacks": sorted(
                [mod, qual, n, secs, m]
                for (mod, qual), (n, secs, m) in self.counts.items()
            ),
        }

    def format(self, limit: int = 10) -> str:
        """Human-readable report (what the CLI prints to stderr)."""
        lines = []
        rate = f", {self.events / self.wall_s:,.0f} events/s" if self.wall_s else ""
        lines.append(
            f"repro.perf.profile: {self.events:,} events across "
            f"{self.simulators} simulator(s) in {self.wall_s:.3f} s{rate}")
        lines.append(
            f"  sampled {self.samples:,} callback timings,"
            f" reaped {self.reaped:,} cancelled entries")
        total = self.events or 1
        subsystems = self.by_subsystem()
        if subsystems:
            lines.append("  events by subsystem:")
            for name, n in subsystems.items():
                lines.append(f"    {name:<12s} {n:>12,}  {100 * n / total:5.1f}%")
        deliveries = self._fired(".receive")
        if deliveries:
            # Derived, not counted: every transmission schedules one wire
            # delivery, and a ``Port._tx_done`` only if something waited
            # for the line (exact once the run has drained).
            lines.append(
                f"  transmit completions elided: "
                f"{deliveries - self._fired('._tx_done'):,} of "
                f"{deliveries:,} transmissions (wire deliveries fired "
                f"- Port._tx_done fired; idle ports schedule none)")
        top = self.top_callbacks(limit)
        if top:
            lines.append(f"  top callbacks (by events fired):")
            for qual, n, est in top:
                t = f"~{est:.3f} s" if est is not None else "   (unsampled)"
                lines.append(
                    f"    {qual:<36s} {n:>12,}  {100 * n / total:5.1f}%  {t}")
        return "\n".join(lines)


class ProfileSession:
    """Ambiently profiles every simulator created while active."""

    def __init__(self, sample_every: int = DEFAULT_SAMPLE_EVERY):
        self.sample_every = sample_every
        self.profilers: List[Profiler] = []
        self.report: Optional[ProfileReport] = None
        self._prev_hook = None
        #: Pinned bound method: ``self._on_simulator`` is a fresh object on
        #: every attribute access, and :meth:`stop` compares by identity.
        self._hook = self._on_simulator
        self._t0: Optional[float] = None

    def _on_simulator(self, sim) -> None:
        # Chain the previous hook *first*: if an outer session (or a test
        # hook) is also active, the innermost session claims the simulator.
        prev = self._prev_hook
        if prev is not None:
            prev(sim)
        prof = Profiler(self.sample_every)
        sim.profiler = prof
        self.profilers.append(prof)

    def start(self) -> "ProfileSession":
        self._prev_hook = engine.on_simulator_created
        engine.on_simulator_created = self._hook
        self._t0 = perf_counter()
        return self

    def stop(self) -> ProfileReport:
        wall = perf_counter() - self._t0 if self._t0 is not None else 0.0
        if engine.on_simulator_created is self._hook:
            engine.on_simulator_created = self._prev_hook
        report = ProfileReport()
        for prof in self.profilers:
            report.add_profiler(prof)
        report.wall_s = wall
        self.report = report
        return report

    @property
    def payload(self) -> Optional[dict]:
        return None if self.report is None else self.report.as_dict()


def _report(summaries: Sequence[dict]) -> ProfileReport:
    report = ProfileReport()
    for summary in summaries:
        report.add_summary(summary)
    return report


def merge_summaries(summaries: Sequence[dict]) -> dict:
    """Fold shipped summaries (a session's own, its tasks') into one."""
    return _report(summaries).as_dict()


def format_summary(summary: dict) -> str:
    return _report([summary]).format()


@contextlib.contextmanager
def profiled(sample_every: int = DEFAULT_SAMPLE_EVERY) -> Iterator[ProfileSession]:
    """Profile every simulation started inside the ``with`` block.

    ``session.report`` is populated when the block exits.
    """
    session = ProfileSession(sample_every).start()
    try:
        yield session
    finally:
        session.stop()


#: This plane's face to :mod:`repro.runtime.probes`.  Never ambiently
#: active: only an explicit capture profiles.
PROBE = SimpleNamespace(name="profile", capture=profiled,
                        active=lambda: False,
                        merge=merge_summaries, format=format_summary)
