"""Output checks: what feeds ``failed_share`` and ``driver.rows_changed``.

Every report a workload writes must pass
``repro.scenarios.report.validate_report_jsonl``, hold exactly the cells the
generated spec compiles to, and record ``failed: 0``.  A ``warm_rerun``
invocation must additionally be served entirely from the cache and
reproduce the priming run's report once the volatile ``cached``/``wall_s``
fields are dropped.

Row digests of the default seed are pinned under ``reference/``.  A
mismatch there is *not* a failure — a deliberate model fix must be visible,
not blocked — it is printed loudly and counted in ``driver.rows_changed``.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

REFERENCE = pathlib.Path(__file__).resolve().parent / "reference" / "digests.json"

#: Report keys that describe how a run executed, not what it measured.
VOLATILE_KEYS = ("cached", "wall_s")


@dataclass
class Tally:
    """Attempts and failures of one workload (invocations + cells)."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.problems.append(what)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _stable(row: dict) -> dict:
    return {k: v for k, v in row.items() if k not in VOLATILE_KEYS}


def stable_rows(path) -> List[dict]:
    """A report's cell rows without the volatile keys, in report order."""
    from repro.scenarios.report import load_report_jsonl

    return [_stable(row) for row in load_report_jsonl(path).rows]


def row_digest(row: dict) -> str:
    text = json.dumps(row, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def row_digests(path) -> List[str]:
    return [row_digest(row) for row in stable_rows(path)]


def check_invocation(tally: Tally, what: str, returncode: int) -> None:
    """Count one CLI invocation; a non-zero exit is a failure."""
    tally.attempt()
    if returncode != 0:
        tally.fail(f"{what}: exit code {returncode}")


def check_report(tally: Tally, what: str, path, expected_cells: int,
                 all_cached: bool = False,
                 same_rows_as: Optional[List[dict]] = None) -> None:
    """Count ``expected_cells`` cells; every one that is missing, errored,
    uncached when it had to be cached, or different from the priming run's
    row is a failure.  A report that cannot be read fails all its cells."""
    from repro.scenarios.report import load_report_jsonl, validate_report_jsonl

    tally.attempt(expected_cells)
    try:
        validate_report_jsonl(path)
        report = load_report_jsonl(path)
    except (OSError, ValueError) as exc:
        tally.fail(f"{what}: unreadable report: {exc}", expected_cells)
        return
    rows = report.rows
    reasons: Dict[str, int] = {}

    def mark(why: str, n: int = 1) -> None:
        reasons[why] = reasons.get(why, 0) + n

    for i, row in enumerate(rows):
        if i >= expected_cells:
            mark("unexpected extra cell(s)")
        elif "error" in row:
            mark("cell(s) errored")
        elif all_cached and not row.get("cached"):
            mark("cell(s) not served from the cache")
        elif same_rows_as is not None and (
                i >= len(same_rows_as)
                or _stable(row) != same_rows_as[i]):
            mark("row(s) differ from the priming run")
    if len(rows) < expected_cells:
        mark("cell(s) missing", expected_cells - len(rows))
    bad = max(sum(reasons.values()), int(report.meta.get("failed", 0)))
    if bad:
        detail = ", ".join(f"{n} {why}" for why, n in reasons.items())
        tally.fail(f"{what}: {detail or 'meta records failed cells'}",
                   min(bad, expected_cells))


def load_reference() -> Dict[str, dict]:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return {}


def rows_changed(workload: str, seed: int, digests: List[str]) -> Optional[int]:
    """Rows whose digest differs from the pinned one, or ``None`` when no
    reference is pinned for this ``(workload, seed)``."""
    pinned = load_reference().get(workload)
    if not pinned or pinned.get("seed") != seed:
        return None
    ref = pinned["rows"]
    changed = sum(1 for a, b in zip(digests, ref) if a != b)
    return changed + abs(len(digests) - len(ref))


def pin_reference(workload: str, seed: int, digests: List[str]) -> None:
    data = load_reference()
    data[workload] = {"seed": seed, "rows": digests}
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
