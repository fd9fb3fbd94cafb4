"""Content-addressed on-disk result cache for experiment tasks.

Key = BLAKE2b-256 over ``(task identity, code fingerprint)`` where the task
identity is the function's qualified name plus a canonical rendering of its
kwargs (:func:`repro.runtime.task.task_id` — the seed is part of the kwargs),
and the code fingerprint hashes every ``.py`` source file of the ``repro``
package plus the task function's own module if it lives outside the package.
Any source edit therefore invalidates the whole cache — deliberately blunt:
correctness over cleverness, and a cold rerun of the CI-scale sweeps is
cheap compared to debugging a stale-cache artefact.

Entries are single pickle files ``<key>.pkl`` holding ``{"value", "task",
"elapsed_s"}``, written atomically (``<key>.<pid>.tmp`` + rename) so a
crashed or parallel writer can never leave a torn entry — only a temp file,
swept by a later eviction scan.  LRU state is the file mtime: hits re-touch
the file, and eviction (size or entry-count cap, whichever trips first)
removes oldest-touched entries.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import pathlib
import pickle
import sys
import time
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro._lazy import blake2b
from repro.resilience import selfchaos
from repro.runtime.task import TaskSpec

_SENTINEL = object()


@functools.lru_cache(maxsize=None)
def _package_root() -> str:
    import repro

    return os.path.dirname(repro.__file__)


def _tree_fingerprint(root: str) -> str:
    """Hash of every ``.py`` file under ``root`` — its path relative to
    ``root``, then its bytes — in path-component order.  An exact content
    hash: no mtime or size shortcut, so any source edit changes it."""
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        sources += [os.path.join(dirpath, name) for name in filenames
                    if name.endswith(".py")]
    digest = blake2b(digest_size=32)
    for path in sorted(sources, key=lambda p: p.split(os.sep)):
        digest.update(path[len(root) + 1:].encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _package_fingerprint() -> str:
    """Hash of all repro package sources (computed once per process)."""
    return _tree_fingerprint(_package_root())


@functools.lru_cache(maxsize=None)
def _module_fingerprint(module_file: str) -> str:
    digest = blake2b(digest_size=32)
    try:
        digest.update(pathlib.Path(module_file).read_bytes())
    except OSError:
        digest.update(module_file.encode())
    return digest.hexdigest()


def code_fingerprint(fn: Optional[Callable] = None) -> str:
    """Fingerprint of the code a task's result depends on."""
    parts = [_package_fingerprint()]
    if fn is not None:
        module = sys.modules.get(getattr(fn, "__module__", ""), None)
        module_file = getattr(module, "__file__", None)
        # Inside the package means below its directory: a sibling such as
        # ``src/repro_ext/`` shares the prefix but none of the fingerprint.
        if module_file and not os.path.normpath(module_file).startswith(
                _package_root() + os.sep):
            parts.append(_module_fingerprint(module_file))
    return blake2b("|".join(parts).encode(), digest_size=32).hexdigest()


class ResultCache:
    """Directory of pickled task results with LRU-capped size."""

    #: :meth:`put` runs :meth:`evict` — an O(entries) directory stat scan —
    #: on the first put of the instance's lifetime (bounding growth left
    #: behind by earlier processes) and then once every this-many puts, so
    #: eviction amortizes to O(1) per put instead of going quadratic over a
    #: matrix sweep.  The caps can be overshot by at most ``_EVICT_EVERY - 1``
    #: entries between scans; an explicit :meth:`evict` is always exact.
    _EVICT_EVERY = 32

    #: Hygiene counters persisted (best-effort) in ``counters.json`` next to
    #: the entries, so ``repro cache stats`` sees events from past processes.
    _COUNTER_KEYS = ("torn_pruned", "eviction_scans_skipped",
                     "eviction_lock_busy")

    #: An eviction lock older than this is presumed orphaned (its holder
    #: crashed between O_EXCL and unlink) and taken over.
    _LOCK_STALE_S = 120.0

    def __init__(
        self,
        directory: pathlib.Path,
        max_bytes: int = 512 * 1024 * 1024,
        max_entries: int = 4096,
    ):
        self.directory = pathlib.Path(directory)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._puts_until_evict = 0
        self._unflushed = {k: 0 for k in self._COUNTER_KEYS}

    # -- keys ---------------------------------------------------------------

    def key_for(self, spec: TaskSpec, identity: Optional[str] = None) -> str:
        """Cache key of ``spec``.  ``identity`` is ``spec.identity`` when
        the caller already holds it — it is a recursive rendering of the
        kwargs, recomputed on every access."""
        if identity is None:
            identity = spec.identity
        payload = identity + "\n" + code_fingerprint(spec.fn)
        return blake2b(payload.encode(), digest_size=32).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.pkl"

    def _open_tmp(self, name: str) -> Tuple[int, str]:
        """``<name>.<pid>.tmp``, created exclusively.  The directory is made
        when it is found missing — a cache's first write, or removed under
        a running sweep — not re-asserted with a ``mkdir`` per entry; a file
        already there bears this pid, so it is a dead namesake's orphan."""
        tmp = os.path.join(self.directory, f"{name}.{os.getpid()}.tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
        try:
            return os.open(tmp, flags, 0o600), tmp
        except FileNotFoundError:
            self.directory.mkdir(parents=True, exist_ok=True)
        except FileExistsError:
            os.unlink(tmp)
        return os.open(tmp, flags, 0o600), tmp

    # -- get / put ----------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)``.  A corrupt entry counts as a miss and is removed."""
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
            value = entry["value"]
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                AttributeError, ImportError, IndexError, ValueError,
                TypeError, UnicodeDecodeError):
            # Truncated or garbage bytes surface as almost any of the above
            # (ValueError/TypeError/UnicodeDecodeError come from torn opcode
            # arguments, not just UnpicklingError) — all of them mean the
            # entry is unusable, so prune it and report a miss.
            if path.exists():
                try:
                    path.unlink()
                except OSError:
                    pass
                self._bump("torn_pruned", flush=True)
            return False, None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        return True, value

    def put(self, key: str, value: Any, task: str = "",
            elapsed_s: float = 0.0) -> bool:
        """Store a result; returns False if the value is unpicklable."""
        entry = {"value": value, "task": task, "elapsed_s": elapsed_s}
        try:
            blob = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        if selfchaos.armed() and selfchaos.fire("cache:torn"):
            # Crash-mid-write simulation: a torn blob still lands on disk
            # (atomically, ironically) so get() must prune it as corrupt.
            blob = blob[:max(1, len(blob) // 3)]
        fd, tmp = self._open_tmp(key)
        try:
            with os.fdopen(fd, "wb") as fh:
                if selfchaos.armed() and selfchaos.fire("cache:enospc"):
                    raise selfchaos.enospc()
                fh.write(blob)
            os.replace(tmp, self._path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._puts_until_evict -= 1
        if self._puts_until_evict < 0:
            self.evict()
            self._puts_until_evict = self._EVICT_EVERY - 1
            self._flush_counters()
        else:
            self._bump("eviction_scans_skipped")
        return True

    # -- hygiene counters ---------------------------------------------------

    def _counters_path(self) -> pathlib.Path:
        return self.directory / "counters.json"

    def _load_counters(self) -> dict:
        """Persisted totals from the sidecar (zeros if absent/corrupt)."""
        try:
            data = json.loads(self._counters_path().read_text())
            return {k: int(data.get(k, 0)) for k in self._COUNTER_KEYS}
        except (OSError, ValueError, TypeError, AttributeError):
            return {k: 0 for k in self._COUNTER_KEYS}

    def _bump(self, name: str, flush: bool = False) -> None:
        self._unflushed[name] += 1
        if flush:
            self._flush_counters()

    def _flush_counters(self) -> None:
        """Fold in-memory deltas into the sidecar (atomic, best-effort).

        Flushed on torn-entry prunes (rare) and alongside each amortized
        eviction scan — never per put.  Concurrent writers can lose each
        other's deltas; the counters are best-effort diagnostics, not
        accounting.
        """
        if not any(self._unflushed.values()):
            return
        totals = self._load_counters()
        for key in self._COUNTER_KEYS:
            totals[key] += self._unflushed[key]
        try:
            fd, tmp = self._open_tmp("counters.json")
            with os.fdopen(fd, "w") as fh:
                json.dump(totals, fh, sort_keys=True)
            os.replace(tmp, self._counters_path())
        except OSError:
            return
        self._unflushed = {k: 0 for k in self._COUNTER_KEYS}

    def counters(self) -> dict:
        """Persisted totals plus any deltas not yet flushed."""
        totals = self._load_counters()
        for key in self._COUNTER_KEYS:
            totals[key] += self._unflushed[key]
        return totals

    # -- cross-process eviction lock -----------------------------------------

    def _lock_path(self) -> pathlib.Path:
        return self.directory / "evict.lock"

    @contextlib.contextmanager
    def _eviction_lock(self) -> Iterator[bool]:
        """Best-effort cross-process mutex around destructive scans.

        Two simultaneous matrix runs sharing a cache directory must not
        race LRU eviction: run A's scan could delete the entry run B just
        wrote (B re-touched it *after* A statted).  An ``O_EXCL`` lockfile
        serialises the scans; a lock whose mtime is older than
        ``_LOCK_STALE_S`` is a crashed holder's orphan and is broken.
        Yields False (caller skips the scan) when the lock is genuinely
        held — eviction is amortized hygiene, deferring it is always safe.
        """
        path = self._lock_path()
        acquired = False
        for attempt in range(2):
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                with os.fdopen(fd, "w") as fh:
                    fh.write(f"pid={os.getpid()}\n")
                acquired = True
                break
            except FileExistsError:
                try:
                    st = path.stat()
                except OSError:
                    continue  # holder just released: retry once
                if time.time() - st.st_mtime <= self._LOCK_STALE_S:
                    break
                # Stale takeover.  Two racers may both have observed the
                # orphan; a bare unlink here could remove the *fresh* lock
                # the other racer just created after its own takeover.  So:
                # re-stat to confirm the path is still the inode we judged
                # stale, rename it aside (only one renamer wins the inode),
                # and unlink the renamed orphan — never ``path`` itself.
                aside = path.with_name(f"{path.name}.stale.{os.getpid()}")
                try:
                    cur = path.stat()
                    if (cur.st_ino, cur.st_mtime) != (st.st_ino, st.st_mtime):
                        continue  # lock changed hands: retry the O_EXCL
                    os.rename(path, aside)
                except OSError:
                    continue  # another racer won the takeover: retry
                with contextlib.suppress(OSError):
                    aside.unlink()
            except OSError:
                break  # unwritable dir: proceed unlocked-skip
        try:
            yield acquired
        finally:
            if acquired:
                with contextlib.suppress(OSError):
                    path.unlink()

    # -- hygiene ------------------------------------------------------------

    def _entries(self, suffix: str = ".pkl") -> List[Tuple[str, float, int]]:
        """``(path, mtime, size)`` of every entry (``".tmp"``: every temp
        file), in directory order — one ``scandir`` pass (pathlib's glob +
        a ``Path.stat()`` per entry cost more than the syscalls they wrap)."""
        out = []
        try:
            with os.scandir(self.directory) as scan:
                for entry in scan:
                    if not entry.name.endswith(suffix):
                        continue
                    try:
                        st = entry.stat()
                    except OSError:
                        continue  # evicted by a concurrent run mid-scan
                    out.append((entry.path, st.st_mtime, st.st_size))
        except OSError:
            return []  # no directory yet (or not a directory): no entries
        return out

    def _orphan_tmp(self) -> List[str]:
        """Temp files older than ``_LOCK_STALE_S``: their writer was killed
        between the open and the rename (a live one takes milliseconds)."""
        cutoff = time.time() - self._LOCK_STALE_S
        return [path for path, mtime, _ in self._entries(".tmp")
                if mtime < cutoff]

    def evict(self) -> int:
        """Drop orphaned temp files and the least-recently-used entries
        past the size/count caps.

        Holds the cross-process eviction lock; when another run's scan is
        in progress the call is skipped (``eviction_lock_busy`` counter) —
        the concurrent scan is already enforcing the caps.
        """
        with self._eviction_lock() as acquired:
            if not acquired:
                self._bump("eviction_lock_busy")
                return 0
            for path in self._orphan_tmp():
                with contextlib.suppress(OSError):
                    os.unlink(path)
            entries = sorted(self._entries(), key=lambda e: e[1])  # oldest 1st
            total = sum(size for _, _, size in entries)
            removed = 0
            while entries and (len(entries) > self.max_entries
                               or total > self.max_bytes):
                path, _, size = entries.pop(0)
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
                removed += 1
            return removed

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "dir": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(size for _, _, size in entries),
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "orphan_tmp": len(self._orphan_tmp()),
            **self.counters(),
        }

    def clear(self) -> int:
        """Remove every entry (and orphaned temp file — a fresh one is a
        concurrent writer's); returns how many entries were deleted.

        Unlike :meth:`evict`, clearing proceeds even when the eviction
        lock is busy — an explicit ``repro cache clear`` outranks a
        background scan, and deleting under a concurrent scanner is safe
        (it tolerates vanished paths).
        """
        removed = 0
        for path, _, _ in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for path in self._orphan_tmp():
            with contextlib.suppress(OSError):
                os.unlink(path)
        return removed
