"""Spans around the calls into each layer, recorded from outside ``src/``.

The traced run wraps the program's layer boundaries (``install`` below)
without editing the program: each call becomes a span with a name, start and
end in both CPU and wall seconds, and the span that caused it; spans of one
CLI invocation share its id.  Spans stay in memory until the invocation
ends.  A layer's *self time* is its span minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = dict  # {"id", "parent", "inv", "name", "cpu0", "cpu1", "wall0", "wall1"}


class SpanRecorder:
    """Nested spans of one invocation plus counts taken at the same places."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def begin(self, name: str) -> Span:
        span = {"id": len(self.spans), "name": name, "inv": self.invocation,
                "parent": self._stack[-1] if self._stack else None,
                "cpu0": 0.0, "cpu1": 0.0, "wall0": 0.0, "wall1": 0.0}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["wall0"] = time.perf_counter()
        span["cpu0"] = time.process_time()
        return span

    def end(self, span: Span) -> None:
        span["cpu1"] = time.process_time()
        span["wall1"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call.  ``after(result, *args)``
        runs once the span has closed, for counts that must not be timed."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper


# -- span arithmetic ----------------------------------------------------------

def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: List[Span], clock: str = "cpu") -> Dict[Tuple[str, int], float]:
    """``(invocation, span id) -> self time``: the span's duration minus the
    part of its interval that its direct children cover."""
    lo, hi = clock + "0", clock + "1"
    children: Dict[Tuple[str, int], List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["inv"], s["parent"]), []).append(
                (s[lo], s[hi]))
    out = {}
    for s in spans:
        key = (s["inv"], s["id"])
        inside = [(max(a, s[lo]), min(b, s[hi]))
                  for a, b in children.get(key, ())]
        out[key] = (s[hi] - s[lo]) - _covered(
            (a, b) for a, b in inside if b > a)
    return out


def _ancestors(by_key: Dict[Tuple[str, int], Span], span: Span):
    parent = by_key.get((span["inv"], span["parent"]))
    while parent is not None:
        yield parent
        parent = by_key.get((parent["inv"], parent["parent"]))


def total(spans: List[Span], name: str, clock: str = "cpu",
          under: Optional[str] = None) -> float:
    """Summed duration of the outermost spans called ``name`` — only those
    below a span called ``under``, when given."""
    lo, hi = clock + "0", clock + "1"
    by_key = {(s["inv"], s["id"]): s for s in spans}
    out = 0.0
    for s in spans:
        if s["name"] != name:
            continue
        above = [a["name"] for a in _ancestors(by_key, s)]
        if name in above or (under is not None and under not in above):
            continue
        out += s[hi] - s[lo]
    return out


def self_total(spans: List[Span], name: str, clock: str = "cpu") -> float:
    selfs = self_times(spans, clock)
    return sum(selfs[(s["inv"], s["id"])] for s in spans if s["name"] == name)


# -- wrapping the program's layer boundaries ----------------------------------

def _rebind(original, replacement) -> None:
    """Point every ``repro.*`` module global that *is* ``original`` at
    ``replacement`` — ``from x import f`` binds ``f`` in the importer, so
    patching the defining module alone would miss those call sites."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro"
                                  or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: SpanRecorder) -> Callable[[], None]:
    """Wrap the layer boundaries of an already-imported ``repro``; returns
    a function to call after the root span for the counts taken last.

    Nothing under ``src/`` is edited.  Cell functions keep their
    ``__module__``/``__qualname__`` (``functools.wraps``), so task
    identities — and with them cache keys — are those of the unwrapped
    program.
    """
    import pickle

    from repro.runtime import scheduler
    from repro.runtime.cache import ResultCache
    from repro.scenarios import cells, compiler, loader, report
    from repro.sim.engine import Simulator
    from repro.sim.fluid import cells as fluid_cells

    def fn(module, attr, name, after=None):
        original = getattr(module, attr)
        _rebind(original, rec.wrap(original, name, after))

    def method(cls, attr, name, after=None):
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name, after))

    fn(loader, "load", "scenarios.loader.load")
    fn(compiler, "compile_scenario", "scenarios.compiler.compile",
       after=lambda matrix, *a, **k:
           rec.count("scenarios.compiler.cells", len(matrix)))

    shipped: list = []

    def after_run_tasks(results, tasks, *a, **k):
        rec.count("runtime.scheduler.tasks", len(results))
        rec.count("runtime.scheduler.failed",
                  sum(1 for r in results if r.error is not None))
        rec.count("runtime.scheduler.retries",
                  sum(max(0, r.attempts - 1) for r in results))
        shipped.extend(getattr(tasks, "tasks", tasks))

    def finish() -> None:
        # What shipping each task to a pool worker costs in bytes — taken
        # once the root span has closed, so the program is not charged.
        rec.count("runtime.scheduler.pickle_bytes",
                  sum(len(pickle.dumps(spec)) for spec in shipped))

    fn(scheduler, "run_tasks", "runtime.run_tasks", after=after_run_tasks)

    method(ResultCache, "key_for", "runtime.cache.key")

    def after_get(result, cache, key):
        rec.count("runtime.cache.hits" if result[0] else "runtime.cache.misses")

    method(ResultCache, "get", "runtime.cache.get", after=after_get)

    def after_put(stored, cache, key, *a, **k):
        if stored:
            try:
                rec.count("runtime.cache.bytes_written",
                          os.path.getsize(cache._path(key)))
            except OSError:
                pass

    method(ResultCache, "put", "runtime.cache.put", after=after_put)

    fn(cells, "run_persistent", "scenarios.cells.persistent")
    fn(cells, "run_poisson", "scenarios.cells.poisson")
    fn(fluid_cells, "run_fluid", "sim.fluid.run_fluid")
    method(Simulator, "run", "sim.engine.run")

    fn(report, "build_report", "scenarios.report.build")

    def after_write(lines, dest, *a, **k):
        if isinstance(dest, (str, os.PathLike)):
            rec.count("scenarios.report.bytes", os.path.getsize(dest))

    fn(report, "write_report_jsonl", "scenarios.report.write", after_write)
    fn(report, "write_report_csv", "scenarios.report.write", after_write)
    return finish
