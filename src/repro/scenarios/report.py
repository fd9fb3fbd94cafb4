"""The matrix report: per-cell rows, grouped aggregates, and a ranking.

A finished matrix run produces three layers:

* **rows** — one flat dict per cell (coordinates + metrics), the raw data;
* **groups** — cells aggregated along the spec's ``report.compare`` axis
  (mean over the remaining axes and seeds), the comparison the spec asks
  for;
* **ranking** — groups ordered by Borda count over the spec's
  ``report.objectives`` (each objective ranks the groups; a group's score
  is the sum of its ranks; lowest total wins).  Rank-sum is scale-free, so
  "queue in KB" and "FCT in ms" need no normalization to combine.

Serialization mirrors :mod:`repro.obs.export`: a JSONL stream with a
``meta`` header carrying :data:`REPORT_SCHEMA` first, then one record per
row/group/rank line, plus a wide CSV of the per-cell rows.  Writers take
open file handles (or paths) and never print — keeping machine-readable
output clean of whatever the surrounding environment writes to stdout is a
caller guarantee the CLI relies on.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Union

#: Schema tag written to (and checked in) every report JSONL export.
REPORT_SCHEMA = "repro.scenarios.report/v1"

_RECORD_KINDS = ("meta", "cell", "group", "rank")

#: Metrics that default to an objective direction when the spec does not
#: name any (only those present in the rows are used).
_DEFAULT_OBJECTIVES = (
    ("utilization", "max"),
    ("fairness", "max"),
    ("avg_fct_ms", "min"),
    ("p99_fct_ms", "min"),
    ("max_queue_kb", "min"),
    ("data_drops", "min"),
    ("recovery_ms", "min"),
)

#: Row keys that are coordinates/bookkeeping, never aggregated metrics.
_NON_METRIC_KEYS = ("cell", "cached", "wall_s", "error", "buckets",
                    "protocol", "workload", "topology", "flows", "hosts",
                    "seed")

#: Execution-volatile keys stripped by the writers' ``stable`` mode: they
#: describe *how* a run executed (cache luck, wall time), not what it
#: measured, so they differ between an interrupted+resumed campaign and an
#: uninterrupted one even though every result row is identical.  ``repro
#: resume`` promises byte-identical reports; stripping these keys (implied
#: whenever a run journal is active) is what makes that promise literal.
_VOLATILE_KEYS = ("cached", "wall_s")


def _stable_dict(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in _VOLATILE_KEYS}


class MatrixReport:
    """Everything a matrix run learned, ready to print or export."""

    def __init__(self, scenario: str, compare: str,
                 objectives: Dict[str, str], rows: List[dict],
                 groups: Optional[List[dict]] = None,
                 ranking: Optional[List[Tuple[str, float]]] = None,
                 meta: Optional[Dict[str, Any]] = None):
        self.scenario = scenario
        self.compare = compare
        self.objectives = objectives
        self.rows = rows
        self.groups = [] if groups is None else groups
        #: ``(group_key, total_rank_score)`` pairs, best (lowest score)
        #: first.
        self.ranking = [] if ranking is None else ranking
        self.meta = {} if meta is None else meta


def _short(axis: str) -> str:
    return axis.rsplit(".", 1)[-1]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _metric_keys(rows: List[dict]) -> List[str]:
    keys: List[str] = []
    for row in rows:
        for key, value in row.items():
            if key in _NON_METRIC_KEYS or key in keys:
                continue
            if _is_number(value):
                keys.append(key)
    return keys


def build_report(scenario_name: str, rows: List[dict],
                 compare: str = "transport.protocol",
                 objectives: Optional[Dict[str, str]] = None,
                 meta: Optional[Dict[str, Any]] = None,
                 coords: Optional[Sequence[str]] = None) -> MatrixReport:
    """Aggregate per-cell rows along ``compare`` and rank the groups.

    ``rows`` is :func:`repro.scenarios.compiler.cell_rows` output; ``coords``
    names the sweep-axis columns (they are locations, not measurements, so
    they never aggregate).  Cells that failed (carry an ``error`` key) are
    excluded from aggregates but counted in ``meta["failed"]``.  With fewer
    than two groups the ranking is trivially the group list; the report is
    still useful for its aggregates.
    """
    key = _short(compare)
    ok_rows = [r for r in rows if "error" not in r]
    failed = len(rows) - len(ok_rows)

    by_group: Dict[str, List[dict]] = {}
    for row in ok_rows:
        by_group.setdefault(str(row.get(key, "(all)")), []).append(row)

    metric_keys = _metric_keys(ok_rows)
    # The compare coordinate itself may be numeric (load, n_flows) and then
    # looks like a metric; coordinates locate a cell, they never aggregate.
    skip = {key, "seed"} | {_short(c) for c in (coords or ())}
    metric_keys = [m for m in metric_keys if m not in skip]

    groups: List[dict] = []
    for group_key in sorted(by_group):
        members = by_group[group_key]
        agg: Dict[str, Any] = {key: group_key, "cells": len(members)}
        for metric in metric_keys:
            values = [r[metric] for r in members
                      if _is_number(r.get(metric))]
            if values:
                agg[metric] = sum(values) / len(values)
        groups.append(agg)

    if objectives:
        used = {m: d for m, d in objectives.items()
                if any(m in g for g in groups)}
    else:
        used = {m: d for m, d in _DEFAULT_OBJECTIVES
                if any(m in g for g in groups)}

    scores: Dict[str, float] = {g[key]: 0.0 for g in groups}
    for metric, direction in used.items():
        scored = [g for g in groups if _is_number(g.get(metric))]
        ordered = sorted(scored, key=lambda g: g[metric],
                         reverse=(direction == "max"))
        for rank, g in enumerate(ordered):
            scores[g[key]] += rank
        # A group missing the metric entirely ranks behind every scored one.
        for g in groups:
            if g not in scored:
                scores[g[key]] += len(ordered)
    ranking = sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))
    for position, (group_key, score) in enumerate(ranking, 1):
        for g in groups:
            if g[key] == group_key:
                g["rank"] = position
                g["score"] = score
    groups.sort(key=lambda g: g.get("rank", 0))

    info = dict(meta or {})
    info.setdefault("cells", len(rows))
    info["failed"] = failed
    return MatrixReport(scenario=scenario_name, compare=compare,
                        objectives=used, rows=rows, groups=groups,
                        ranking=ranking, meta=info)


# -- terminal rendering -------------------------------------------------------

def format_report(report: MatrixReport, float_fmt: str = "{:.4g}") -> str:
    """The ranked comparison as an aligned text table."""
    from repro.experiments.table import ExperimentResult, format_table

    key = _short(report.compare)
    columns = ["rank", key, "cells"]
    for g in report.groups:
        for col in g:
            if col not in columns and col not in ("score",):
                columns.append(col)
    table = format_table(ExperimentResult(
        name=f"{report.scenario} · ranked by {key}",
        columns=columns, rows=report.groups), float_fmt=float_fmt)
    lines = [table]
    if report.objectives:
        objs = ", ".join(f"{m}:{d}" for m, d in report.objectives.items())
        lines.append(f"objectives: {objs} (rank-sum, lower is better)")
    cells = report.meta.get("cells", len(report.rows))
    cached = report.meta.get("cached")
    extra = f"cells: {cells}"
    if cached is not None:
        extra += f"  cached: {cached}"
    if report.meta.get("failed"):
        extra += f"  FAILED: {report.meta['failed']}"
    lines.append(extra)
    return "\n".join(lines)


# -- JSONL / CSV export -------------------------------------------------------

def _handle(dest: Union[str, IO[str]], mode: str = "w"):
    if hasattr(dest, "write"):
        return dest, False
    return open(dest, mode), True


def write_report_jsonl(dest: Union[str, IO[str]],
                       report: MatrixReport, stable: bool = False) -> int:
    """One JSON object per line: meta header, cells, groups, ranking.

    ``dest`` may be a path or an open text handle; nothing is ever written
    to stdout, so JSONL report mode stays machine-clean regardless of what
    the hosting environment prints.  ``stable=True`` drops the
    execution-volatile keys (:data:`_VOLATILE_KEYS`) from the meta header
    and every cell row so a resumed run's export compares byte-for-byte
    against the uninterrupted baseline.
    """
    fh, owned = _handle(dest)
    clean = _stable_dict if stable else (lambda r: r)
    try:
        lines = 0
        fh.write(json.dumps({
            "record": "meta", "schema": REPORT_SCHEMA,
            "scenario": report.scenario, "compare": report.compare,
            "objectives": report.objectives, **clean(report.meta),
        }) + "\n")
        lines += 1
        for row in report.rows:
            fh.write(json.dumps({"record": "cell", **clean(row)}) + "\n")
            lines += 1
        for g in report.groups:
            fh.write(json.dumps({"record": "group", **g}) + "\n")
            lines += 1
        for position, (group_key, score) in enumerate(report.ranking, 1):
            fh.write(json.dumps({"record": "rank", "rank": position,
                                 "group": group_key, "score": score}) + "\n")
            lines += 1
        return lines
    finally:
        if owned:
            fh.close()


def load_report_jsonl(path) -> MatrixReport:
    """Reassemble a :func:`write_report_jsonl` export."""
    rows: List[dict] = []
    groups: List[dict] = []
    ranking: List[Tuple[str, float]] = []
    meta: Dict[str, Any] = {}
    scenario = compare = ""
    objectives: Dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.pop("record", None)
            if kind == "meta":
                scenario = rec.pop("scenario", "")
                compare = rec.pop("compare", "")
                objectives = rec.pop("objectives", {})
                rec.pop("schema", None)
                meta = rec
            elif kind == "cell":
                rows.append(rec)
            elif kind == "group":
                groups.append(rec)
            elif kind == "rank":
                ranking.append((rec["group"], rec["score"]))
    return MatrixReport(scenario=scenario, compare=compare,
                        objectives=objectives, rows=rows, groups=groups,
                        ranking=ranking, meta=meta)


def validate_report_jsonl(path) -> dict:
    """Schema-check a report export; raises ``ValueError`` on violations.

    Returns ``{"lines": n, "records": {kind: count}}`` (the shape CI's
    matrix-smoke job asserts on, mirroring ``repro.obs.export``).
    """
    counts: Dict[str, int] = {}
    lines = 0
    ranks_seen: List[int] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            lines += 1
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            kind = rec.get("record")
            if kind not in _RECORD_KINDS:
                raise ValueError(f"{path}:{lineno}: unknown record {kind!r}")
            counts[kind] = counts.get(kind, 0) + 1
            if lineno == 1 and (kind != "meta"
                                or rec.get("schema") != REPORT_SCHEMA):
                raise ValueError(
                    f"{path}:1: missing meta/schema header ({REPORT_SCHEMA})")
            if kind == "cell" and not isinstance(rec.get("cell"), str):
                raise ValueError(f"{path}:{lineno}: cell needs a label")
            if kind == "rank":
                if not isinstance(rec.get("rank"), int) or rec["rank"] < 1:
                    raise ValueError(f"{path}:{lineno}: bad rank")
                ranks_seen.append(rec["rank"])
    if counts.get("meta", 0) != 1:
        raise ValueError(f"{path}: expected exactly one meta record")
    if ranks_seen != sorted(ranks_seen) or \
            ranks_seen != list(range(1, len(ranks_seen) + 1)):
        raise ValueError(f"{path}: rank records must be 1..N in order")
    return {"lines": lines, "records": counts}


def write_report_csv(dest: Union[str, IO[str]],
                     report: MatrixReport, stable: bool = False) -> int:
    """Wide CSV of the per-cell rows (union of keys, spec order).

    ``stable=True`` drops the execution-volatile columns (see
    :func:`write_report_jsonl`).
    """
    rows = [_stable_dict(r) for r in report.rows] if stable else report.rows
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns and key != "buckets":
                columns.append(key)
    fh, owned = _handle(dest)
    try:
        fh.write(",".join(columns) + "\n")
        n = 0
        for row in rows:
            cells = []
            for col in columns:
                value = row.get(col, "")
                text = "" if value is None else str(value)
                if "," in text or '"' in text:
                    text = '"' + text.replace('"', '""') + '"'
                cells.append(text)
            fh.write(",".join(cells) + "\n")
            n += 1
        return n
    finally:
        if owned:
            fh.close()


__all__ = ["REPORT_SCHEMA", "MatrixReport", "build_report", "format_report",
           "write_report_jsonl", "load_report_jsonl", "validate_report_jsonl",
           "write_report_csv"]
