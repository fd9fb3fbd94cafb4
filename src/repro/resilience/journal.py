"""Run journal: an append-only JSONL manifest of campaign task states.

Schema ``repro.resilience/v1``.  Two record kinds share the file:

* ``{"record": "meta", ...}`` — one per process generation: the schema
  tag, the sanitized argv needed to re-invoke the run, the campaign name
  and task total, and a ``generation`` counter (0 for the original run,
  incremented by every resume).
* ``{"record": "task", "index": i, "state": s, ...}`` — one per task
  state change: ``queued`` (carries the result-cache ``key`` when caching
  is on), ``running``, ``done`` (``cached``/``wall_s``), ``failed``
  (``error``), or ``interrupted``.

The writer appends one line per record and flushes after each write, so a
SIGKILLed process loses at most the final line — and that line may be torn
(partial).  :func:`load_journal` therefore parses defensively: a non-JSON
*final* line is counted and skipped, never fatal.  Folding the records by
``(sweep, index)`` (last state wins) reconstructs the campaign's frontier:
which tasks finished (and under which cache keys), which were in flight,
and which never started.  The sweep ordinal is derived while folding — the
runtime's ``Telemetry`` (the journal's one writer of task records) opens
each ``run_tasks`` batch with a ``sweep`` note, so a
campaign that runs several sweeps through one journal keeps their
identically-numbered tasks distinct; each ``meta`` record (a resume
generation replaying the same argv) restarts the ordinal at zero so a
resumed sweep's records overwrite its earlier generation's, not stack
beside them.

Resume is deliberately thin: ``repro resume <journal>`` re-invokes the
recorded argv with the journal re-attached.  Completed tasks replay from
the result cache (their keys are in the journal; a missing cache entry
simply re-executes, and determinism keeps the report byte-identical), so
the journal never stores result payloads — it is a manifest, not a second
cache.
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.resilience.jsonl import JsonlAppender, read_records

JOURNAL_SCHEMA = "repro.resilience/v1"

#: Task states a journal records (mirrors the telemetry vocabulary).
TASK_STATES = ("queued", "running", "done", "failed", "interrupted")


class RunJournal:
    """Append-only writer for one campaign's journal file.

    Thread-safe (the pool dispatcher and signal handlers share it); every
    record is one line, flushed immediately so the OS page cache — which
    survives process death — holds it even if the process is SIGKILLed a
    microsecond later.
    """

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self._out = JsonlAppender(self.path)

    # -- writing ------------------------------------------------------------

    def _write(self, record: Dict[str, Any]) -> None:
        record.setdefault("t", round(time.time(), 6))
        self._out.append(record, sort_keys=True)

    def meta(self, argv: Sequence[str], command: str = "",
             name: str = "", total: int = 0,
             generation: int = 0) -> None:
        """Record a process generation (original run or a resume)."""
        self._write({"record": "meta", "schema": JOURNAL_SCHEMA,
                     "argv": list(argv), "command": command, "name": name,
                     "total": total, "generation": generation,
                     "pid": os.getpid()})

    def task(self, index: int, state: str, label: str = "",
             **fields: Any) -> None:
        """Record one task state change (``queued``/``done``/...)."""
        record = {"record": "task", "index": index, "state": state}
        if label:
            record["label"] = label
        record.update(fields)
        self._write(record)

    def note(self, kind: str, **fields: Any) -> None:
        """Free-form annotation record (e.g. the matrix scenario name)."""
        self._write({"record": kind, **fields})

    def close(self) -> None:
        self._out.close()


class JournalState:
    """A journal file folded into its latest-state-per-task view.

    ``tasks`` is keyed by ``(sweep, index)``: the sweep ordinal within the
    latest generation (0 when a campaign runs a single sweep, which is the
    common case) and the task index within that sweep.
    """

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self.metas: List[dict] = []
        self.tasks: Dict[tuple, dict] = {}
        self.notes: List[dict] = []
        self.torn_lines = 0

    # -- derived views ------------------------------------------------------

    @property
    def meta(self) -> Optional[dict]:
        """The most recent generation's meta record."""
        return self.metas[-1] if self.metas else None

    @property
    def generation(self) -> int:
        return int(self.meta.get("generation", 0)) if self.meta else 0

    @property
    def argv(self) -> List[str]:
        return list(self.meta.get("argv", [])) if self.meta else []

    @property
    def total(self) -> int:
        return int(self.meta.get("total", 0)) if self.meta else 0

    def by_state(self, state: str) -> List[int]:
        """Task indices in ``state``; multi-sweep campaigns may repeat an
        index (one entry per sweep that has a task in that state)."""
        return sorted(i for (_sweep, i), rec in self.tasks.items()
                      if rec.get("state") == state)

    def unfinished(self) -> List[int]:
        """Indices whose last recorded state is not ``done``/``failed``."""
        return sorted(i for (_sweep, i), rec in self.tasks.items()
                      if rec.get("state") not in ("done", "failed"))

    def summary(self) -> dict:
        counts = {state: 0 for state in TASK_STATES}
        for rec in self.tasks.values():
            state = rec.get("state")
            if state in counts:
                counts[state] += 1
        return {"path": str(self.path), "generation": self.generation,
                "total": self.total, "torn_lines": self.torn_lines,
                **counts}


def load_journal(path: pathlib.Path) -> JournalState:
    """Parse a journal, tolerating a torn final line (crash mid-write).

    Any unparsable line is skipped with a warning; only well-formed
    records fold into the state.  (A crash can tear at most the final
    line, but replayed/concatenated journals may carry earlier tears —
    skipping is always the right recovery, so no line is fatal.)
    """
    state = JournalState(path)
    try:
        records, state.torn_lines = read_records(path, "journal")
    except OSError as exc:
        raise FileNotFoundError(f"cannot read journal {path}: {exc}")
    #: "sweep" notes seen in the current generation; task records fold
    #: under the ordinal of the most recent one (0 before any note, so
    #: hand-written journals without sweep notes still load).
    sweeps = 0
    for record in records:
        kind = record.get("record")
        if kind == "meta":
            state.metas.append(record)
            sweeps = 0  # a resume generation replays sweeps from the top
        elif kind == "task":
            index = record.get("index")
            if isinstance(index, int):
                state.tasks[(max(0, sweeps - 1), index)] = record
        else:
            if kind == "sweep":
                sweeps += 1
            state.notes.append(record)
    return state


# -- ambient journal (mirrors repro.obs.trace's activation idiom) -----------

_ACTIVE: Optional[RunJournal] = None


def activate(path: pathlib.Path) -> RunJournal:
    """Install ``path`` as the process-wide journal and return the writer."""
    global _ACTIVE
    deactivate()
    _ACTIVE = RunJournal(path)
    return _ACTIVE


def current() -> Optional[RunJournal]:
    """The active journal, or ``None`` (what a ``Telemetry`` attaches)."""
    return _ACTIVE


def deactivate() -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None


__all__ = ["JOURNAL_SCHEMA", "TASK_STATES", "RunJournal", "JournalState",
           "load_journal", "activate", "current", "deactivate"]
