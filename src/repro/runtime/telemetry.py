"""Structured progress for sweeps: run-log events + a live stderr ticker.

Every scheduler state change (queued, started, done, failed, retry, cache
hit) increments counters and, when a run journal is active, appends one
JSON object per line to it — a format tail-able during a long sweep and
loadable afterwards (:func:`repro.resilience.journal.load_journal`).

The ticker rewrites a single stderr line (``\\r``) while tasks run and is
enabled only on a tty (or when forced), so pytest/CI logs stay clean.  The
one-line summary at the end — task counts, failures, cache hit rate, wall
time — prints whenever the ticker is enabled.

Telemetry is the single lifecycle funnel: the scheduler reports each task
transition here once, as one journal event, and that event goes to two
sinks — the crash-safe run journal (:mod:`repro.resilience.journal`: the
one log of every event, which ``repro resume`` folds to a task frontier);
and, when a tracer is active, the runtime layer of ``repro.obs.trace``
(:meth:`~repro.obs.trace.TaskRecorder.record` turns the same event names
and fields into task / attempt / worker-lane spans).
With a sink off its forwarding is one ``is None`` check per event.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, Optional

from repro.resilience import journal as run_journal
from repro.runtime import probes


class Telemetry:
    """Counters + run-log sink + ticker for one ``run_tasks`` invocation."""

    def __init__(
        self,
        sweep: str = "sweep",
        total: int = 0,
        progress: Optional[bool] = None,
        stream=None,
        journal: Optional[run_journal.RunJournal] = None,
    ):
        self.sweep = sweep
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        if progress is None:
            progress = bool(getattr(self.stream, "isatty", lambda: False)())
        self.progress = progress
        self._lock = threading.Lock()
        self._start = time.monotonic()
        self._ticker_live = False
        self.counts = {
            "queued": 0, "running": 0, "done": 0, "failed": 0,
            "retries": 0, "deferred": 0, "resubmitted": 0,
            "cache_hits": 0, "cache_misses": 0,
            "interrupted": 0,
        }
        from repro.obs.trace import TaskRecorder
        self.recorder = TaskRecorder.maybe(sweep)
        #: The run journal (explicit, else the process's active one).  One
        #: Telemetry is one ``run_tasks`` batch, so it opens with the
        #: ``sweep`` event that keeps a campaign's sweeps apart on replay.
        self.journal = journal if journal is not None \
            else run_journal.current()
        #: index -> result-cache key, as journaled with ``queued``/``done``.
        self._keys: Dict[int, Optional[str]] = {}
        self.emit("sweep", name=sweep, total=total)

    # -- event plumbing -----------------------------------------------------

    def emit(self, event: str, **fields) -> None:
        if self.journal is not None:
            self.journal.event(event, **fields)

    def _task(self, event: str, index: int, label: str, *bump: str,
              settles: bool = False, blob: Optional[dict] = None,
              **fields) -> None:
        """One task transition into the counters (``bump``; ``settles`` =
        the task left the running set), the run journal, and — the same
        ``(event, index, label, fields)`` — the trace recorder, which also
        takes the executing process's trace ``blob`` of a ``task_done``."""
        with self._lock:
            if settles:
                self.counts["running"] = max(0, self.counts["running"] - 1)
            for name in bump:
                self.counts[name] += 1
        self.emit(event, index=index, label=label, **fields)
        if self.recorder is not None:
            self.recorder.record(event, index, label, fields, blob)

    def task_queued(self, index: int, label: str,
                    key: Optional[str] = None) -> None:
        """A task entered the sweep; ``key`` is its result-cache key (when
        caching is on), journaled so a resume can find its result."""
        self._keys[index] = key
        self._task("task_queued", index, label, "queued", key=key)

    def task_started(self, index: int, label: str, attempt: int) -> None:
        self._task("task_started", index, label, "running", attempt=attempt)
        self.tick()

    def task_done(self, index: int, label: str, wall_s: float,
                  payloads: Optional[Dict[str, dict]] = None) -> None:
        """A task executed to completion; ``payloads`` is what the probes
        it ran under observed (``{name: payload}``), credited to the open
        :mod:`~repro.runtime.probes` session — and, for the trace, handed
        to the recorder to stitch under this task's span."""
        self._task("task_done", index, label, "done", settles=True,
                   blob=(payloads or {}).get("trace"),
                   key=self._keys.get(index), wall_s=round(wall_s, 6),
                   cached=False)
        if payloads:
            probes.bank(label, payloads)
        self.tick()

    def task_failed(self, index: int, label: str, error: str,
                    attempts: int) -> None:
        self._task("task_failed", index, label, "failed", settles=True,
                   error=error, attempts=attempts)
        self.tick()

    def task_retry(self, index: int, label: str, attempt: int,
                   error: str) -> None:
        self._task("task_retry", index, label, "retries", settles=True,
                   attempt=attempt, error=error)

    def task_deferred(self, index: int, label: str, backoff_s: float) -> None:
        """A retry parked for ``backoff_s`` before resubmission."""
        self._task("task_deferred", index, label, "deferred",
                   backoff_s=round(backoff_s, 6),
                   due_t=round(time.time() + backoff_s, 6))

    def task_resubmitted(self, index: int, label: str, attempt: int) -> None:
        """A backoff-deferred task re-entering the pool/serial loop."""
        self._task("task_resubmitted", index, label, "resubmitted",
                   attempt=attempt)

    def task_interrupted(self, index: int, label: str,
                         signame: str = "SIGINT") -> None:
        """A task cut short by a graceful-shutdown drain (never ran, or
        its in-flight result was abandoned)."""
        self._task("task_interrupted", index, label, "interrupted",
                   signal=signame)
        self.tick()

    def cache_hit(self, index: int, label: str) -> None:
        self._task("cache_hit", index, label, "cache_hits", "done",
                   key=self._keys.get(index), cached=True)
        self.tick()

    def cache_miss(self, index: int, label: str) -> None:
        self._task("cache_miss", index, label, "cache_misses")

    def degraded(self, reason: str, settles: bool = False) -> None:
        """Work goes to the serial path; ``settles`` = it is one started
        task, which leaves the running set until serial starts it again."""
        if settles:
            with self._lock:
                self.counts["running"] = max(0, self.counts["running"] - 1)
        self.emit("degraded_to_serial", reason=reason)
        if self.progress:
            self._write(f"\n[repro.runtime] degrading to serial: {reason}\n")

    # -- rendering ----------------------------------------------------------

    @property
    def wall_s(self) -> float:
        return time.monotonic() - self._start

    def hit_rate(self) -> Optional[float]:
        looked = self.counts["cache_hits"] + self.counts["cache_misses"]
        return self.counts["cache_hits"] / looked if looked else None

    def summary(self) -> dict:
        return {"sweep": self.sweep, "total": self.total,
                "wall_s": round(self.wall_s, 3),
                "cache_hit_rate": self.hit_rate(), **self.counts}

    def _write(self, text: str) -> None:
        try:
            self.stream.write(text)
            self.stream.flush()
        except (OSError, ValueError):  # closed stream: telemetry never raises
            pass

    def tick(self) -> None:
        if not self.progress:
            return
        c = self.counts
        line = (f"[{self.sweep}] {c['done']}/{self.total} done"
                f" ({c['cache_hits']} cached), {c['running']} running,"
                f" {c['failed']} failed, {self.wall_s:.1f}s")
        with self._lock:
            self._write("\r" + line.ljust(78))
            self._ticker_live = True

    def close(self) -> None:
        """Emit the final summary (to the journal, to stderr if ticking)."""
        self.emit("sweep_done", **self.summary())
        if self.progress:
            c = self.counts
            rate = self.hit_rate()
            rate_txt = f"{100 * rate:.0f}%" if rate is not None else "n/a"
            retry_txt = f"{c['retries']} retries"
            if c["deferred"]:
                retry_txt += (f" ({c['deferred']} deferred, "
                              f"{c['resubmitted']} resubmitted)")
            with self._lock:
                if self._ticker_live:
                    self._write("\r" + " " * 78 + "\r")
                self._write(
                    f"[{self.sweep}] {c['done']}/{self.total} tasks done, "
                    f"{c['failed']} failed, {retry_txt}, "
                    f"cache hit rate {rate_txt}, {self.wall_s:.1f}s\n")

