"""Violation records and the :class:`AuditReport` aggregate.

A violation is one *broken invariant* on one *subject* (a port, a flow, or
the simulator clock).  Reports deduplicate repeat offenses: the first
occurrence keeps its timestamp, message, and a short packet trace captured
from the offending port's ring buffer (reusing
:class:`repro.net.trace.TraceRecord` formatting); later occurrences only
bump a counter.  That keeps an audited run with a systematic bug — say a
mis-sized token bucket leaking thousands of credits — readable instead of
drowning the report in one line per packet.

Reports cross process boundaries as plain dicts (:meth:`AuditReport.summary`)
so :mod:`repro.runtime` can ship audit verdicts from pool workers back to the
parent alongside task values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Violation:
    """One broken invariant on one subject; repeats bump ``count``."""

    invariant: str        # e.g. "credit-rate", "buffer-bound"
    subject: str          # port name, flow repr, or "simulator"
    time_ps: int          # first-offense timestamp
    message: str          # pointed, human-readable description
    count: int = 1
    trace: Tuple[str, ...] = ()  # formatted TraceRecords around the offense

    def format(self) -> str:
        head = (f"[{self.invariant}] {self.subject} @t={self.time_ps}ps: "
                f"{self.message}")
        if self.count > 1:
            head += f" (x{self.count})"
        lines = [head]
        lines.extend(f"    | {line}" for line in self.trace)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "time_ps": self.time_ps,
            "message": self.message,
            "count": self.count,
            "trace": list(self.trace),
        }


@dataclass
class AuditReport:
    """All violations plus how much checking actually happened.

    ``checks`` counts work performed (events observed, packets metered,
    enqueues bounded, ports and flows covered) so a "0 violations" verdict
    can be distinguished from "0 observers attached".
    """

    violations: List[Violation] = field(default_factory=list)
    checks: Dict[str, int] = field(default_factory=dict)
    _first: Dict[Tuple[str, str], Violation] = field(
        default_factory=dict, repr=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def count(self, name: str, amount: int = 1) -> None:
        self.checks[name] = self.checks.get(name, 0) + amount

    def add(self, invariant: str, subject: str, time_ps: int, message: str,
            trace: Sequence[str] = ()) -> None:
        """Record a violation; repeats of (invariant, subject) only count."""
        key = (invariant, subject)
        first = self._first.get(key)
        if first is not None:
            first.count += 1
            return
        violation = Violation(invariant, subject, time_ps, message,
                              trace=tuple(trace))
        self._first[key] = violation
        self.violations.append(violation)

    def summary(self) -> dict:
        """Plain-dict form: picklable, JSON-able, mergeable across runs."""
        return {
            "ok": self.ok,
            "violations": [v.as_dict() for v in self.violations],
            "checks": dict(self.checks),
            "runs": 1,
        }

    def format(self) -> str:
        if self.ok:
            return "audit: OK ({})".format(_format_checks(self.checks))
        lines = [f"audit: {len(self.violations)} violation(s) "
                 f"({_format_checks(self.checks)})"]
        lines.extend(v.format() for v in self.violations)
        return "\n".join(lines)


def empty_summary() -> dict:
    return {"ok": True, "violations": [], "checks": {}, "runs": 0}


def merge_summaries(summaries: Sequence[Optional[dict]]) -> dict:
    """Fold per-run summaries (dropping ``None``) into one session verdict."""
    merged = empty_summary()
    for summary in summaries:
        if not summary:
            continue
        merged["runs"] += summary.get("runs", 1)
        merged["violations"].extend(summary.get("violations", ()))
        for name, value in summary.get("checks", {}).items():
            merged["checks"][name] = merged["checks"].get(name, 0) + value
    merged["ok"] = not merged["violations"]
    return merged


def format_summary(summary: dict) -> str:
    """Render a (possibly merged) summary dict for terminal output."""
    checks = _format_checks(summary.get("checks", {}))
    runs = summary.get("runs", 0)
    violations = summary.get("violations", [])
    head = (f"audit: {runs} audited run(s), {checks}, "
            f"{len(violations)} violation(s)")
    lines = [head]
    for v in violations:
        entry = (f"  [{v['invariant']}] {v['subject']} "
                 f"@t={v['time_ps']}ps: {v['message']}")
        if v.get("count", 1) > 1:
            entry += f" (x{v['count']})"
        lines.append(entry)
        lines.extend(f"      | {t}" for t in v.get("trace", ()))
    return "\n".join(lines)


def _format_checks(checks: Dict[str, int]) -> str:
    if not checks:
        return "no checks performed"
    order = ("events", "transmits", "enqueues", "credits_metered",
             "ports", "flows")
    parts = [f"{checks[k]} {k}" for k in order if k in checks]
    parts.extend(f"{v} {k}" for k, v in sorted(checks.items())
                 if k not in order)
    text = ", ".join(parts)
    if "events" in checks and checks.get("transmits"):
        # Derived from the two counts above: a port whose queues are empty
        # when it starts transmitting schedules no completion event.
        text += (f"; events exclude elided transmit completions "
                 f"(at most one per transmit, <= {checks['transmits']}; "
                 f"`repro run --profile` counts them)")
    return text
