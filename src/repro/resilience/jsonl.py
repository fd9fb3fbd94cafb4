"""Crash-tolerant JSONL: one append-and-flush writer, one torn-line reader.

What the run journal (:mod:`repro.resilience.journal`) is made of: one
JSON object per line, appended while a campaign runs and read back after
the process may have been SIGKILLed mid-write.  (``repro.obs.trace`` files
are written whole at exit and keep their stricter final-line-only reader.)
"""

from __future__ import annotations

import json
import pathlib
import threading
import warnings
from typing import List, Tuple


class JsonlAppender:
    """Append records to ``path``: one line each, flushed immediately, so
    the OS page cache — which survives process death — holds a record even
    if the process is SIGKILLed a microsecond later.

    The handle opens on the first record (creating parent directories) and
    stays open.  Thread-safe.  A log is a safety net, never a failure
    mode: a full or read-only disk must not kill the campaign it
    describes, so ``OSError`` is swallowed.
    """

    def __init__(self, path):
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()
        self._fh = None

    def append(self, record: dict) -> None:
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            try:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._fh = self.path.open("a", buffering=1)
                self._fh.write(line)
                self._fh.flush()
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            try:
                if self._fh is not None:
                    self._fh.close()
            except OSError:
                pass
            self._fh = None


def read_records(path) -> Tuple[List[dict], int]:
    """Every well-formed record in ``path`` plus the count of torn lines.

    A crash tears at most the final line, but replayed or concatenated
    logs may carry earlier tears — skipping is always the right recovery,
    so no line is fatal; each skipped line warns: a torn line is
    information (*something* died here).
    """
    records: List[dict] = []
    torn = 0
    lines = pathlib.Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            record = None
            warnings.warn(f"{path}:{lineno}: skipping torn journal line "
                          f"({line[:40]!r}...)", stacklevel=3)
        if isinstance(record, dict):
            records.append(record)
        else:
            torn += 1
    return records, torn
