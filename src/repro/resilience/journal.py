"""Run journal: the one append-only JSONL log of a campaign's lifecycle.

Schema ``repro.resilience/v2``.  Every line is ``{"t": <unix time>,
"event": <name>, ...}``:

* ``meta`` — one per process generation: the schema tag, the argv needed
  to re-invoke the run (without its ``--journal``), the campaign name, and
  a ``generation`` counter (0 for the original run, incremented by every
  resume).
* everything the runtime's ``Telemetry`` — the log's one writer of task
  lines — is told about: ``sweep`` opens each ``run_tasks`` batch and
  ``sweep_done`` closes it with the counters; per task (``index``,
  ``label``) ``task_queued`` (carries the result-cache ``key`` when caching
  is on), ``cache_hit``/``cache_miss``, ``task_started``, ``task_retry``,
  ``task_deferred``, ``task_resubmitted``, ``task_done``
  (``key``/``wall_s``/``cached``), ``task_failed`` (``error``),
  ``task_interrupted``; and ``degraded_to_serial``, ``shutdown``.

So the same file is the progress log to ``tail -f`` during a long sweep
and the record ``repro resume`` replays from.  The writer appends one line
per event and flushes after each write, so a SIGKILLed process loses at
most the final line — and that line may be torn (partial).
:func:`load_journal` therefore parses defensively: a non-JSON line is
counted and skipped, never fatal.  Folding the task events by
``(sweep, index)`` through :data:`STATE_OF` (last state wins) reconstructs
the campaign's frontier: which tasks finished (and under which cache
keys), which were in flight, and which never started.  The sweep ordinal is
derived while folding from the ``sweep`` events, so a campaign that runs
several sweeps through one journal keeps their identically-numbered tasks
distinct; each ``meta`` line (a resume generation replaying the same argv)
restarts the ordinal at zero so a resumed sweep's events overwrite its
earlier generation's, not stack beside them.

Resume is deliberately thin: ``repro resume <journal>`` re-invokes the
recorded argv with that journal file re-attached.  Completed tasks replay
from the result cache (their keys are in the journal; a missing cache
entry simply re-executes, and determinism keeps the report
byte-identical), so the journal never stores result payloads — it is a
manifest, not a second cache.
"""

from __future__ import annotations

import os
import pathlib
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.resilience.jsonl import JsonlAppender, read_records

JOURNAL_SCHEMA = "repro.resilience/v2"

#: The task state each lifecycle event folds to; every other event leaves
#: the task where it was (a retry or deferral is still ``running``).
STATE_OF = {
    "task_queued": "queued",
    "task_started": "running",
    "task_done": "done",
    "cache_hit": "done",
    "task_failed": "failed",
    "task_interrupted": "interrupted",
}


class RunJournal:
    """Append-only writer for one campaign's journal file.

    Thread-safe (the pool dispatcher and signal handlers share it); every
    event is one line, flushed immediately so the OS page cache — which
    survives process death — holds it even if the process is SIGKILLed a
    microsecond later.
    """

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self._out = JsonlAppender(self.path)

    def event(self, event: str, **fields: Any) -> None:
        """Append one lifecycle line, stamped with the wall clock."""
        self._out.append({"t": round(time.time(), 6), "event": event,
                          **fields})

    def meta(self, argv: Sequence[str], command: str = "",
             name: str = "", generation: int = 0) -> None:
        """Record a process generation (original run or a resume)."""
        self.event("meta", schema=JOURNAL_SCHEMA, argv=list(argv),
                   command=command, name=name, generation=generation,
                   pid=os.getpid())

    def close(self) -> None:
        self._out.close()


class JournalState:
    """A journal file folded into its latest-state-per-task view.

    ``events`` is every well-formed line in file order.  ``tasks`` is keyed
    by ``(sweep, index)`` — the sweep ordinal within the latest generation
    (0 when a campaign runs a single sweep, which is the common case) and
    the task index within that sweep — and holds the task's latest
    state-bearing event plus the ``state`` it folds to.
    """

    def __init__(self, path: pathlib.Path):
        self.path = pathlib.Path(path)
        self.events: List[dict] = []
        self.metas: List[dict] = []
        self.tasks: Dict[tuple, dict] = {}
        self.torn_lines = 0

    # -- derived views ------------------------------------------------------

    @property
    def meta(self) -> Optional[dict]:
        """The most recent generation's meta line."""
        return self.metas[-1] if self.metas else None

    @property
    def generation(self) -> int:
        return int(self.meta.get("generation", 0)) if self.meta else 0

    @property
    def argv(self) -> List[str]:
        return list(self.meta.get("argv", [])) if self.meta else []

    def by_state(self, state: str) -> List[int]:
        """Task indices in ``state``; multi-sweep campaigns may repeat an
        index (one entry per sweep that has a task in that state)."""
        return sorted(i for (_sweep, i), rec in self.tasks.items()
                      if rec["state"] == state)

    def unfinished(self) -> List[int]:
        """Indices whose last recorded state is not ``done``/``failed``."""
        return sorted(i for (_sweep, i), rec in self.tasks.items()
                      if rec["state"] not in ("done", "failed"))

    def summary(self) -> dict:
        counts = dict.fromkeys(STATE_OF.values(), 0)
        for rec in self.tasks.values():
            counts[rec["state"]] += 1
        return {"path": str(self.path), "generation": self.generation,
                "torn_lines": self.torn_lines, **counts}


def load_journal(path: pathlib.Path) -> JournalState:
    """Parse a journal, tolerating a torn final line (crash mid-write).

    Any unparsable line is skipped with a warning; only well-formed
    events fold into the state.  (A crash can tear at most the final
    line, but replayed/concatenated journals may carry earlier tears —
    skipping is always the right recovery, so no line is fatal.)  A file
    tagged with any other schema is refused (``ValueError``), not guessed
    at: its completed tasks are still in the result cache, so re-running
    the original command loses nothing.
    """
    state = JournalState(path)
    try:
        state.events, state.torn_lines = read_records(path)
    except OSError as exc:
        raise FileNotFoundError(f"cannot read journal {path}: {exc}")
    #: ``sweep`` events seen in the current generation; task events fold
    #: under the ordinal of the most recent one (0 before any, so
    #: hand-written journals without sweep lines still load).
    sweeps = 0
    for record in state.events:
        if record.get("schema", JOURNAL_SCHEMA) != JOURNAL_SCHEMA:
            raise ValueError(
                f"{path}: journal schema {record['schema']!r} is not "
                f"{JOURNAL_SCHEMA}; re-run the original command — "
                f"completed tasks replay from the result cache")
        event = record.get("event")
        if event == "meta":
            state.metas.append(record)
            sweeps = 0  # a resume generation replays sweeps from the top
        elif event == "sweep":
            sweeps += 1
        elif event in STATE_OF and isinstance(record.get("index"), int):
            state.tasks[(max(0, sweeps - 1), record["index"])] = {
                **record, "state": STATE_OF[event]}
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


__all__ = ["JOURNAL_SCHEMA", "STATE_OF", "RunJournal", "JournalState",
           "load_journal", "activate", "current", "deactivate"]
