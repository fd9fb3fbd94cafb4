"""Crash-safe execution: run journal, graceful shutdown, self-chaos.

The resilience plane makes long campaigns survivable rather than fragile:

* :mod:`repro.resilience.journal` — the append-only, torn-write-tolerant
  JSONL log of every sweep and task event (``repro.resilience/v2``) that
  the runtime's telemetry funnel writes as a campaign runs, and that
  ``repro resume`` replays.
* :mod:`repro.resilience.signals` — SIGINT/SIGTERM handlers that drain
  in-flight work, mark the rest interrupted, and exit with
  :data:`EXIT_INTERRUPTED` instead of a half-written report.
* :mod:`repro.resilience.selfchaos` — ``REPRO_SELFCHAOS`` fault injection
  aimed at the *execution substrate itself* (killed workers, torn cache
  blobs, ENOSPC), the counterpart of :mod:`repro.chaos`
  which faults the simulated fabric.

Nothing here changes results: a resumed campaign's report is bit-identical
to an uninterrupted run because tasks are deterministic, cache-addressed by
content, and reassembled by index.
"""

from repro.resilience.journal import (
    JOURNAL_SCHEMA,
    JournalState,
    RunJournal,
    activate,
    current,
    deactivate,
    load_journal,
)
from repro.resilience.signals import (
    EXIT_INTERRUPTED,
    graceful_shutdown,
    shutdown_requested,
)
from repro.resilience import selfchaos

__all__ = [
    "JOURNAL_SCHEMA",
    "JournalState",
    "RunJournal",
    "activate",
    "current",
    "deactivate",
    "load_journal",
    "EXIT_INTERRUPTED",
    "graceful_shutdown",
    "shutdown_requested",
    "selfchaos",
]
