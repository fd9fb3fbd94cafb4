"""The row container every experiment returns, and its text rendering.

Stdlib-only (DESIGN §16): printing a stored result needs no simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ExperimentResult:
    """A reproduced table/figure: named rows ready for printing."""

    name: str
    columns: List[str]
    rows: List[dict]
    meta: dict = field(default_factory=dict)

    def column(self, key: str) -> list:
        return [row.get(key) for row in self.rows]


def format_table(result: ExperimentResult, float_fmt: str = "{:.4g}") -> str:
    """Render an ExperimentResult as an aligned text table."""
    def fmt(value) -> str:
        if isinstance(value, float):
            return float_fmt.format(value)
        return str(value)

    header = result.columns
    body = [[fmt(row.get(col, "")) for col in header] for row in result.rows]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "== " + result.name + " ==",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)
