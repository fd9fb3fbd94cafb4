"""The one export format of :mod:`repro.obs` summaries: a JSONL record
stream (schema ``repro.obs.v1``), written by ``repro run``/``repro matrix
--obs-jsonl FILE``.

The writer reads the plain-dict *summary* shape produced by
:meth:`MetricsRegistry.summary` / :func:`merge_summaries`, so it works
identically on an in-process registry and on summaries shipped back from
parallel sweep workers.  The loader round-trips exactly
(``load_jsonl(write_jsonl(s)) == s`` for counters/histograms/series), and
:func:`validate_jsonl` is the schema check CI runs on a written file.
"""

from __future__ import annotations

import json
from typing import Dict

#: Schema tag written to (and checked in) every JSONL export.
SCHEMA = "repro.obs.v1"

_RECORD_KINDS = ("meta", "counter", "gauge", "histogram", "series", "span",
                 "event")


def write_jsonl(path, summary: dict) -> int:
    """Write ``summary`` as one JSON object per line; returns line count."""
    lines = 0
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "record": "meta", "schema": SCHEMA,
            "runs": summary.get("runs", 0),
            "flows": summary.get("flows", 0),
            "snapshots": summary.get("snapshots", 0),
        }) + "\n")
        lines += 1
        for name, value in sorted(summary.get("counters", {}).items()):
            fh.write(json.dumps({"record": "counter", "name": name,
                                 "value": value}) + "\n")
            lines += 1
        for name, value in sorted(summary.get("gauges", {}).items()):
            fh.write(json.dumps({"record": "gauge", "name": name,
                                 "value": value}) + "\n")
            lines += 1
        for name, data in sorted(summary.get("histograms", {}).items()):
            fh.write(json.dumps({"record": "histogram", "name": name,
                                 **data}) + "\n")
            lines += 1
        for name, data in sorted(summary.get("series", {}).items()):
            fh.write(json.dumps({"record": "series", "name": name,
                                 "times_ps": data["times_ps"],
                                 "values": data["values"]}) + "\n")
            lines += 1
        for span in summary.get("spans", ()):
            fh.write(json.dumps({"record": "span", **span}) + "\n")
            lines += 1
        for t_ps, event, fid in summary.get("events", ()):
            fh.write(json.dumps({"record": "event", "t_ps": t_ps,
                                 "event": event, "fid": fid}) + "\n")
            lines += 1
    return lines


def load_jsonl(path) -> dict:
    """Reassemble a summary dict from a :func:`write_jsonl` export."""
    from repro.obs.registry import empty_summary

    out = empty_summary()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            kind = rec.get("record")
            if kind == "meta":
                out["runs"] = rec.get("runs", 0)
                out["flows"] = rec.get("flows", 0)
                out["snapshots"] = rec.get("snapshots", 0)
            elif kind == "counter":
                out["counters"][rec["name"]] = rec["value"]
            elif kind == "gauge":
                out["gauges"][rec["name"]] = rec["value"]
            elif kind == "histogram":
                out["histograms"][rec["name"]] = {
                    "count": rec["count"], "sum": rec["sum"],
                    "min": rec.get("min"), "max": rec.get("max"),
                    "buckets": rec.get("buckets", {}),
                }
            elif kind == "series":
                out["series"][rec["name"]] = {"times_ps": rec["times_ps"],
                                              "values": rec["values"]}
            elif kind == "span":
                span = dict(rec)
                span.pop("record")
                out["spans"].append(span)
            elif kind == "event":
                out["events"].append([rec["t_ps"], rec["event"], rec["fid"]])
    return out


def validate_jsonl(path) -> dict:
    """Schema-check a JSONL export; raises ``ValueError`` on any violation.

    Returns ``{"lines": n, "records": {kind: count}}`` for reporting.
    """
    counts: Dict[str, int] = {}
    lines = 0
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
            if lineno == 1:
                if kind != "meta" or rec.get("schema") != SCHEMA:
                    raise ValueError(
                        f"{path}:1: missing meta/schema header ({SCHEMA})")
            if kind == "counter":
                if not isinstance(rec.get("name"), str):
                    raise ValueError(f"{path}:{lineno}: counter needs a name")
                if not isinstance(rec.get("value"), int) or rec["value"] < 0:
                    raise ValueError(
                        f"{path}:{lineno}: counter value must be an int >= 0")
            elif kind == "histogram":
                if rec.get("count", -1) < 0 or not isinstance(
                        rec.get("buckets"), dict):
                    raise ValueError(f"{path}:{lineno}: malformed histogram")
            elif kind == "series":
                times, values = rec.get("times_ps"), rec.get("values")
                if (not isinstance(times, list) or not isinstance(values, list)
                        or len(times) != len(values)):
                    raise ValueError(
                        f"{path}:{lineno}: series times/values misaligned")
                if any(b < a for a, b in zip(times, times[1:])):
                    raise ValueError(
                        f"{path}:{lineno}: series times not sorted")
            elif kind == "event":
                if not isinstance(rec.get("t_ps"), int):
                    raise ValueError(f"{path}:{lineno}: event needs t_ps")
    if counts.get("meta", 0) != 1:
        raise ValueError(f"{path}: expected exactly one meta record")
    return {"lines": lines, "records": counts}
