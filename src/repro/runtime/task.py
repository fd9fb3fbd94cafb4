"""Task model: the unit a sweep decomposes into.

A :class:`TaskSpec` is ``(top-level function, kwargs)`` — exactly the shape
that pickles to a worker process (functions pickle by qualified name,
kwargs by value).  A :class:`SweepPlan` is an ordered list of specs;
order is the contract that makes parallel execution bit-identical to serial:
results are always reassembled by task index, never by completion time.

``stable_repr`` canonicalises kwargs for cache keys: dict ordering, dataclass
instances (e.g. ``ExpressPassParams``), tuples vs lists, and callables all
reduce to a deterministic string that survives across processes and runs
(unlike ``hash()``, which is salted per interpreter).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence


def stable_repr(value: Any) -> str:
    """Deterministic, cross-process representation of a kwargs value."""
    if isinstance(value, dict):
        items = ", ".join(
            f"{stable_repr(k)}: {stable_repr(v)}"
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        open_, close = ("[", "]") if isinstance(value, list) else ("(", ")")
        return open_ + ", ".join(stable_repr(v) for v in value) + close
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(stable_repr(v) for v in value)) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name)
                  for f in dataclasses.fields(value)}
        return f"{type(value).__qualname__}({stable_repr(fields)})"
    if callable(value):
        mod = getattr(value, "__module__", "?")
        qual = getattr(value, "__qualname__", repr(value))
        return f"<fn {mod}.{qual}>"
    if isinstance(value, float):
        return repr(value)  # repr is shortest-exact in py3: round-trips
    return repr(value)


def task_id(fn: Callable, kwargs: Mapping[str, Any]) -> str:
    """Human-readable identity of a task (also the cache key's plaintext)."""
    mod = getattr(fn, "__module__", "?")
    qual = getattr(fn, "__qualname__", repr(fn))
    return f"{mod}.{qual}({stable_repr(dict(kwargs))})"


@dataclass(frozen=True)
class TaskSpec:
    """One picklable unit of work: ``fn(**kwargs)``.

    ``fn`` must be an importable module-level function (pickled by qualified
    name) and ``kwargs`` must contain only picklable values; both hold for
    every experiment ``run_point`` in this repo.  ``label`` is what progress
    and telemetry display — defaults to the function name.
    """

    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(
                self, "label", getattr(self.fn, "__name__", "task"))

    @property
    def identity(self) -> str:
        return task_id(self.fn, self.kwargs)

    def call(self) -> Any:
        return self.fn(**self.kwargs)


@dataclass(frozen=True)
class SweepPlan:
    """An ordered set of tasks forming one experiment sweep."""

    name: str
    tasks: Sequence[TaskSpec] = ()

    @classmethod
    def from_grid(
        cls,
        fn: Callable[..., Any],
        points: Iterable[Mapping[str, Any]],
        common: Optional[Mapping[str, Any]] = None,
        name: Optional[str] = None,
        label: Optional[Callable[[Mapping[str, Any]], str]] = None,
    ) -> "SweepPlan":
        """Decompose a parameter grid into tasks.

        ``points`` are per-task kwargs (e.g. one dict per ``(protocol, N)``
        cell); ``common`` kwargs apply to every task, with per-point values
        winning on conflict.
        """
        base = dict(common or {})
        tasks: List[TaskSpec] = []
        for point in points:
            kwargs = {**base, **dict(point)}
            lbl = label(point) if label else ""
            tasks.append(TaskSpec(fn, kwargs, lbl))
        return cls(name or getattr(fn, "__name__", "sweep"), tuple(tasks))

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)
