"""repro.obs.trace — cross-layer causal tracing for sweeps and cells.

One trace answers "where did the wall-clock time go?" across every layer a
matrix run touches: the runtime scheduler (task attempt spans, pool worker
lanes, retry/backoff events), matrix cells (one span per cell, spec axes
as args, linked to the scheduler task span), and sim phases (build,
warmup, measurement, finalize — plus generic ``engine.run`` spans the
:class:`~repro.sim.engine.Simulator` emits per ``run()`` call).

Two explicit clock domains, never mixed in one record:

``wall``
    Microseconds of ``time.monotonic()`` relative to the owning tracer's
    epoch.  Worker processes ship their absolute epoch alongside their
    records, so the parent re-bases them into its own epoch at ingest
    (exact on Linux, where ``monotonic`` is CLOCK_MONOTONIC system-wide;
    best-effort elsewhere).

``sim``
    Integer picoseconds of simulated time, straight off ``sim.now``.

Records are plain dicts (picklable, JSON-serializable):

* ``span``: ``{record, layer, track, name, clock, t0, t1, seq, id, args}``
* ``event``: same shape with a single ``t``
* the JSONL file adds one leading ``meta`` record (schema tag, counts).

Ids are deterministic for a fixed run: each ``(layer, track)`` pair counts
its own sequence, and the export orders records by ``(layer, track,
seq)`` — so two identical runs produce byte-identical trace files (modulo
timings; pool-parallel sweeps additionally permute worker-lane tracks by
completion order).

Activation is ambient and strictly observation-only: with no tracer
active every instrumentation point is one ``is None`` branch, and an
active tracer touches no RNG, no event heap, and no cache fingerprints —
golden digests, audit verdicts, and cell rows are bit-identical with
tracing on or off (``tests/test_trace.py`` pins this).  Turn it on with
``--trace FILE`` on ``repro run``/``repro matrix``/the fig CLIs, with
``REPRO_TRACE=FILE`` process-wide, or with :func:`tracing` in code.
Worker processes never write files themselves: per-worker records ride
the existing result channel (``TaskResult.probes["trace"]``) in bounded
buffers — the payloads of the :data:`PROBE` this module exports to
:mod:`repro.runtime.probes` — and are stitched by the parent under
task-qualified track ids.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import pathlib
import time
import warnings
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

from repro.runtime.config import env_text

#: Schema tag written to (and checked in) every JSONL export.
SCHEMA = "repro.obs.trace/v1"

#: The three instrumented layers, in export order.
LAYERS = ("cell", "runtime", "sim")

CLOCKS = ("wall", "sim")

_RECORD_KINDS = ("meta", "span", "event")

#: Default per-tracer record cap.  A tracer never grows past this; further
#: records increment ``dropped`` (reported in the meta record) instead.
MAX_RECORDS = 100_000

#: Smaller default for per-task worker buffers: they ship over pipes and
#: pickle back onto TaskResults, so keep them modest.
WORKER_MAX_RECORDS = 50_000


class Tracer:
    """A bounded, append-only record buffer with deterministic ids."""

    def __init__(self, max_records: int = MAX_RECORDS):
        self.max_records = max_records
        self.records: List[dict] = []
        self.dropped = 0
        #: Absolute ``time.monotonic()`` at creation; every wall timestamp
        #: is microseconds since this.  Shipped with worker buffers so the
        #: parent can re-base them.
        self.epoch = time.monotonic()
        self._seq: Dict[tuple, int] = {}
        #: task index -> finished task span ``{"t0", "t1", "id"}``; read by
        #: the matrix layer to place cell spans and link them to their
        #: tasks (index-keyed: labels may repeat across a sweep).
        self.task_spans: Dict[int, dict] = {}
        #: label -> extra args merged into that task's span (e.g. a matrix
        #: cell's spec axes, annotated before the sweep runs).
        self.annotations: Dict[str, dict] = {}

    # -- clocks -------------------------------------------------------------

    def now_us(self) -> float:
        """Wall clock: microseconds since this tracer's epoch."""
        return round((time.monotonic() - self.epoch) * 1e6, 3)

    def wall_us(self, monotonic_s: float) -> float:
        """Re-base an absolute ``time.monotonic()`` reading onto the epoch."""
        return round((monotonic_s - self.epoch) * 1e6, 3)

    # -- emission -----------------------------------------------------------

    def _add(self, rec: dict) -> Optional[str]:
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return None
        key = (rec["layer"], rec["track"])
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        rec["seq"] = seq
        rec["id"] = f"{rec['layer']}/{rec['track']}#{seq}"
        self.records.append(rec)
        return rec["id"]

    def span(self, layer: str, name: str, *, track: str,
             t0, t1, clock: str = "wall",
             args: Optional[dict] = None,
             link: Optional[str] = None) -> Optional[str]:
        """Record a completed interval; returns its id (None if dropped)."""
        rec = {"record": "span", "layer": layer, "track": track,
               "name": name, "clock": clock, "t0": t0, "t1": t1,
               "args": args or {}}
        if link is not None:
            rec["link"] = link
        return self._add(rec)

    def event(self, layer: str, name: str, *, track: str,
              t, clock: str = "wall",
              args: Optional[dict] = None) -> Optional[str]:
        """Record an instantaneous occurrence (e.g. a backoff deferral)."""
        return self._add({"record": "event", "layer": layer, "track": track,
                          "name": name, "clock": clock, "t": t,
                          "args": args or {}})

    def annotate(self, label: str, args: dict) -> None:
        """Attach extra args to the task span that will carry ``label``."""
        self.annotations.setdefault(label, {}).update(args)

    # -- stitching ----------------------------------------------------------

    def ingest(self, records, *, prefix: str = "",
               shift_us: float = 0.0, dropped: int = 0) -> int:
        """Adopt records from another tracer (a worker buffer).

        Tracks are re-qualified with ``prefix`` and wall timestamps shifted
        by ``shift_us`` (the worker epoch re-based onto ours); sim
        timestamps are absolute and pass through.  Seq/ids are reassigned
        under this tracer's counters.  Returns how many were adopted.
        """
        n = 0
        for rec in records:
            out = dict(rec)
            out.pop("seq", None)
            out.pop("id", None)
            out["track"] = prefix + out["track"]
            if shift_us and out.get("clock") == "wall":
                for key in ("t0", "t1", "t"):
                    if key in out:
                        out[key] = round(out[key] + shift_us, 3)
            if self._add(out) is not None:
                n += 1
        self.dropped += dropped
        return n

    def ingest_blob(self, blob: Optional[dict], *, prefix: str = "") -> int:
        """Adopt a worker buffer shipped as ``{"records", "epoch",
        "dropped"}`` (the shape :func:`collect` produces), re-basing its
        epoch onto ours."""
        if not blob or not blob.get("records"):
            return 0
        shift = round((blob.get("epoch", self.epoch) - self.epoch) * 1e6, 3)
        return self.ingest(blob["records"], prefix=prefix, shift_us=shift,
                          dropped=blob.get("dropped", 0))

    def sorted_records(self) -> List[dict]:
        """Records in the canonical export order ``(layer, track, seq)``."""
        return sorted(self.records,
                      key=lambda r: (r["layer"], r["track"], r["seq"]))


# ---------------------------------------------------------------------------
# Ambient activation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None
#: Innermost-wins stack of worker/task capture buffers (see :func:`collect`).
_BUFFERS: List[Tracer] = []
#: True once the ``REPRO_TRACE`` env activation has been consumed — either
#: lazily (library use) or because an explicit :func:`activate` took over.
_env_consumed = False
_atexit_registered = False


def activate(max_records: int = MAX_RECORDS) -> Tracer:
    """Install a process-wide ambient tracer (CLI ``--trace`` entry point).

    Marks any ``REPRO_TRACE`` env activation as consumed, so the explicit
    owner of this tracer controls the single file write.
    """
    global _ACTIVE, _env_consumed
    _env_consumed = True
    _ACTIVE = Tracer(max_records=max_records)
    return _ACTIVE


def deactivate() -> Optional[Tracer]:
    """Remove the ambient tracer and return it (None if none was active)."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def reset() -> None:
    """Drop all ambient state, including env consumption (tests, reuse)."""
    global _ACTIVE, _env_consumed
    _ACTIVE = None
    _env_consumed = False
    _BUFFERS.clear()


def _env_flush() -> None:
    """atexit hook for the lazy ``REPRO_TRACE`` activation: best-effort
    write of whatever the ambient tracer holds when the process exits."""
    path = env_text("REPRO_TRACE")
    if _ACTIVE is None or not path or not _ACTIVE.records:
        return
    try:
        write_files(_ACTIVE, path)
    except OSError:
        pass


def current() -> Optional[Tracer]:
    """The ambient tracer, lazily created from ``REPRO_TRACE`` if set.

    The lazy path registers an atexit flush to the env path — library runs
    with nothing but the env var still produce a trace file.  An explicit
    :func:`activate` (the CLI) preempts this and owns the write instead.
    """
    global _ACTIVE, _env_consumed, _atexit_registered
    if _ACTIVE is None and not _env_consumed and env_text("REPRO_TRACE"):
        _env_consumed = True
        _ACTIVE = Tracer()
        if not _atexit_registered:
            _atexit_registered = True
            atexit.register(_env_flush)
    return _ACTIVE


def emit_target() -> Optional[Tracer]:
    """Where instrumentation should record: the innermost open capture
    buffer, else the ambient tracer, else None (tracing off)."""
    if _BUFFERS:
        return _BUFFERS[-1]
    return current()


class collect:
    """Capture scope for worker/task execution: records emitted inside go
    to a private bounded buffer instead of the ambient tracer, ready to be
    shipped back over the result channel and stitched by the parent.

    After exit, :attr:`blob` holds ``{"records", "epoch", "dropped"}`` —
    feed it to :meth:`Tracer.ingest_blob` — and :attr:`payload` wraps it
    with the executing process's pid and run window (absolute
    ``time.monotonic`` seconds), which is what the telemetry recorder
    turns into a worker-lane span.
    """

    blob: Optional[dict] = None
    payload: Optional[dict] = None

    def __init__(self, max_records: int = WORKER_MAX_RECORDS):
        self.tracer = Tracer(max_records=max_records)

    def __enter__(self) -> "collect":
        _BUFFERS.append(self.tracer)
        self._t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = time.monotonic()
        if _BUFFERS and _BUFFERS[-1] is self.tracer:
            _BUFFERS.pop()
        elif self.tracer in _BUFFERS:  # pragma: no cover - defensive
            _BUFFERS.remove(self.tracer)
        self.blob = {"records": self.tracer.records,
                     "epoch": self.tracer.epoch,
                     "dropped": self.tracer.dropped}
        self.payload = {"pid": os.getpid(), "t0": self._t0, "t1": t1,
                        "trace": self.blob}
        return False


@contextlib.contextmanager
def _capture(path=None, **opts):
    """The probe's capture: a worker/task buffer (:class:`collect`), or —
    given ``path``, a whole invocation's ``--trace FILE`` — the ambient
    tracer, both exports written on exit (payload ``{"path", "lines"}``)."""
    if not path:
        with collect(**opts) as handle:
            yield handle
        return
    handle = SimpleNamespace(payload=None)
    with tracing() as tracer:
        yield handle
    handle.payload = {"path": str(path), "lines": write_files(tracer, path)}


def _merge(payloads) -> dict:
    """Task buffers are stitched as they arrive (by the telemetry
    recorder), so all that is left to fold is where the trace went."""
    merged = next((dict(p) for p in payloads if "path" in p), {})
    merged["buffers"] = sum(1 for p in payloads if "path" not in p)
    return merged


def _format(merged: dict) -> str:
    if "path" not in merged:
        return f"repro.obs.trace: {merged['buffers']} task buffer(s) captured"
    return (f"wrote {merged['lines']} trace record(s) to {merged['path']} "
            f"(+ {merged['path']}.perfetto.json)")


@contextlib.contextmanager
def tracing(max_records: int = MAX_RECORDS):
    """Context manager over activate/deactivate; yields the tracer."""
    global _ACTIVE
    prior = _ACTIVE
    tracer = activate(max_records=max_records)
    try:
        yield tracer
    finally:
        _ACTIVE = prior


# ---------------------------------------------------------------------------
# Runtime-layer recorder (driven by repro.runtime.telemetry)
# ---------------------------------------------------------------------------

class TaskRecorder:
    """Turns the run journal's task events into runtime-layer spans.

    :class:`~repro.runtime.telemetry.Telemetry` hands every task event it
    journals — ``(event, index, label, fields)``, the journal's own names
    and fields — to :meth:`record`.  One parent span per task on track
    ``task/<index>`` (queued -> final, carrying outcome/attempts/cache
    state plus any annotated matrix axes), child attempt spans on the same
    track, worker-lane spans on ``worker/<pid>`` when the executing process
    reported its window, and instant events for retry backoff
    (``deferred`` / ``resubmitted``).  Worker sim records ride with
    ``task_done`` and are stitched in under ``t<index>.``-prefixed tracks,
    so a cell's engine/phase spans stay attributable to their task.
    """

    #: Events that close a task's span, with the outcome they record.
    _OUTCOMES = {"task_done": "done", "cache_hit": "cache-hit",
                 "task_failed": "failed", "task_interrupted": "interrupted"}

    def __init__(self, tracer: Tracer, sweep: str):
        self.tracer = tracer
        self.sweep = sweep
        self._state: Dict[int, dict] = {}

    @classmethod
    def maybe(cls, sweep: str) -> Optional["TaskRecorder"]:
        tracer = emit_target()
        return None if tracer is None else cls(tracer, sweep)

    def record(self, event: str, index: int, label: str, fields: dict,
               blob: Optional[dict] = None) -> None:
        """Fold one journaled task event into the trace; ``blob`` is the
        executing process's report (pid, run window, records) that rides
        with ``task_done``.  Events with no runtime span (``cache_miss``)
        are ignored."""
        tracer = self.tracer
        track = f"task/{index}"
        if event == "task_queued":
            self._state[index] = {"queued": tracer.now_us(), "t0": None,
                                  "attempt": 0}
        elif event == "task_started":
            st = self._state.setdefault(index, {"queued": tracer.now_us()})
            st["t0"] = tracer.now_us()
            st["attempt"] = fields["attempt"]
        elif event == "task_retry":
            st = self._state.get(index)
            if st is not None and st.get("t0") is not None:
                tracer.span("runtime", "attempt", track=track,
                            t0=st["t0"], t1=tracer.now_us(),
                            args={"attempt": fields["attempt"],
                                  "outcome": "retry",
                                  "error": fields["error"]})
        elif event == "task_deferred":
            tracer.event("runtime", "deferred", track=track,
                         t=tracer.now_us(),
                         args={"backoff_s": fields["backoff_s"]})
        elif event == "task_resubmitted":
            tracer.event("runtime", "resubmitted", track=track,
                         t=tracer.now_us(),
                         args={"attempt": fields["attempt"]})
        elif event in self._OUTCOMES:
            error = fields.get("error")
            if event == "task_interrupted":
                error = f"interrupted ({fields['signal']})"
            self._finish(index, label, self._OUTCOMES[event], error, blob)

    def _finish(self, index: int, label: str, outcome: str,
                error: Optional[str], blob: Optional[dict]) -> None:
        tracer = self.tracer
        st = self._state.pop(index, None)
        if st is None:
            return
        now = tracer.now_us()
        track = f"task/{index}"
        if blob is not None:
            # The executing process (a pool worker, or this one when
            # serial) reported its actual run window: a worker-lane span
            # plus its captured sim records, stitched under this task.
            w0 = tracer.wall_us(blob["t0"])
            w1 = tracer.wall_us(blob["t1"])
            tracer.span("runtime", "run", track=f"worker/{blob['pid']}",
                        t0=w0, t1=w1,
                        args={"task": label, "index": index,
                              "pid": blob["pid"]})
            tracer.ingest_blob(blob.get("trace"), prefix=f"t{index}.")
        elif st.get("t0") is not None and outcome != "cache-hit":
            tracer.span("runtime", "attempt", track=track,
                        t0=st["t0"], t1=now,
                        args={"attempt": st.get("attempt", 1),
                              "outcome": outcome})
        args: Dict[str, Any] = {"index": index, "outcome": outcome,
                                "sweep": self.sweep}
        if error is not None:
            args["error"] = error
        args.update(tracer.annotations.get(label, {}))
        span_id = tracer.span("runtime", label, track=track,
                              t0=st["queued"], t1=now, args=args)
        if span_id is not None:
            tracer.task_spans[index] = {"t0": st["queued"], "t1": now,
                                        "id": span_id}


# ---------------------------------------------------------------------------
# JSONL export (repro.obs.trace/v1)
# ---------------------------------------------------------------------------

def _dumps(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, source, dropped: Optional[int] = None) -> int:
    """Write a trace as canonical JSONL; returns the line count.

    ``source`` is a :class:`Tracer` (exported in canonical order) or an
    already-ordered record list (e.g. from :func:`load_jsonl` — the writer
    re-sorts, so a load/write round-trip is byte-identical).
    """
    if isinstance(source, Tracer):
        records = source.sorted_records()
        if dropped is None:
            dropped = source.dropped
    else:
        records = sorted(source,
                         key=lambda r: (r["layer"], r["track"], r["seq"]))
    tracks = {(r["layer"], r["track"]) for r in records}
    meta = {"record": "meta", "schema": SCHEMA, "records": len(records),
            "tracks": len(tracks), "dropped": dropped or 0}
    with open(path, "w") as fh:
        fh.write(_dumps(meta) + "\n")
        for rec in records:
            fh.write(_dumps(rec) + "\n")
    return len(records) + 1


def _records(path):
    """``(lineno, record)`` for every non-blank line of a trace file.

    A non-JSON *final* line — the signature of a process killed mid-write,
    which tears at most the last line — is warned about and yielded as
    ``(lineno, None)`` instead of refusing the whole trace; garbage
    anywhere else raises ``ValueError``.
    """
    all_lines = pathlib.Path(path).read_text().splitlines()
    nonblank = max((i for i, l in enumerate(all_lines, 1) if l.strip()),
                   default=0)
    for lineno, line in enumerate(all_lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            if lineno != nonblank:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            warnings.warn(f"{path}:{lineno}: skipping torn final line "
                          f"({line[:40]!r}...)", stacklevel=3)
            rec = None
        yield lineno, rec


def load_jsonl(path) -> dict:
    """Load a trace file: ``{"meta": {...}, "records": [...], "torn": n}``.

    A torn *final* line is skipped with a warning and counted in ``torn``
    (see :func:`_records`); garbage anywhere else still raises, and so
    does a file with no ``meta`` header (it is not a trace).
    """
    meta = None
    records: List[dict] = []
    torn = 0
    for _lineno, rec in _records(path):
        if rec is None:
            torn += 1
        elif rec.get("record") == "meta":
            meta = rec
        else:
            records.append(rec)
    if meta is None or meta.get("schema") != SCHEMA:
        raise ValueError(f"{path}: missing meta/schema header ({SCHEMA})")
    return {"meta": meta, "records": records, "torn": torn}


def validate_jsonl(path) -> dict:
    """Schema-check a trace file; raises ``ValueError`` on any violation.

    Returns ``{"lines": n, "records": {kind: count}, "torn": n}``.  The
    one tolerated deviation is a torn *final* line — the signature of a
    crash mid-write, which the resilience plane must be able to read past
    (warn + skip), not a schema violation.
    """
    counts: Dict[str, int] = {}
    lines = 0
    torn = 0
    seen_ids = set()
    last_key = None
    for lineno, rec in _records(path):
        if rec is None:
            torn += 1
            continue
        lines += 1
        kind = rec.get("record")
        if kind not in _RECORD_KINDS:
            raise ValueError(f"{path}:{lineno}: unknown record {kind!r}")
        counts[kind] = counts.get(kind, 0) + 1
        if lineno == 1:
            if kind != "meta" or rec.get("schema") != SCHEMA:
                raise ValueError(
                    f"{path}:1: missing meta/schema header ({SCHEMA})")
            continue
        if kind == "meta":
            raise ValueError(f"{path}:{lineno}: duplicate meta record")
        if rec.get("layer") not in LAYERS:
            raise ValueError(
                f"{path}:{lineno}: unknown layer {rec.get('layer')!r}")
        if rec.get("clock") not in CLOCKS:
            raise ValueError(
                f"{path}:{lineno}: unknown clock {rec.get('clock')!r}")
        if not isinstance(rec.get("track"), str) \
                or not isinstance(rec.get("name"), str):
            raise ValueError(f"{path}:{lineno}: needs track and name")
        if kind == "span":
            t0, t1 = rec.get("t0"), rec.get("t1")
            if not isinstance(t0, (int, float)) \
                    or not isinstance(t1, (int, float)) or t1 < t0:
                raise ValueError(
                    f"{path}:{lineno}: span needs t1 >= t0")
            if rec["clock"] == "sim" and not (
                    isinstance(t0, int) and isinstance(t1, int)):
                raise ValueError(
                    f"{path}:{lineno}: sim-clock times must be "
                    f"integer picoseconds")
        else:
            if not isinstance(rec.get("t"), (int, float)):
                raise ValueError(f"{path}:{lineno}: event needs t")
        rid = rec.get("id")
        if not isinstance(rid, str) or rid in seen_ids:
            raise ValueError(
                f"{path}:{lineno}: missing or duplicate id {rid!r}")
        seen_ids.add(rid)
        key = (rec["layer"], rec["track"], rec.get("seq", 0))
        if last_key is not None and key < last_key:
            raise ValueError(
                f"{path}:{lineno}: records not in canonical "
                f"(layer, track, seq) order")
        last_key = key
    if counts.get("meta", 0) != 1:
        raise ValueError(f"{path}: expected exactly one meta record")
    return {"lines": lines, "records": counts, "torn": torn}


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto export
# ---------------------------------------------------------------------------

def to_chrome(records) -> dict:
    """Render records as a Chrome trace-event JSON object.

    Layers map to processes and tracks to threads, both numbered in sorted
    order (deterministic for a fixed record set), with ``M`` metadata
    events naming them.  Wall timestamps are already microseconds; sim
    timestamps convert ps -> us for the timeline but keep their exact
    picosecond values in ``args``.
    """
    layers = sorted({r["layer"] for r in records})
    pid_of = {layer: i + 1 for i, layer in enumerate(layers)}
    tracks = sorted({(r["layer"], r["track"]) for r in records})
    tid_of = {}
    for layer in layers:
        for i, (lay, track) in enumerate(t for t in tracks
                                         if t[0] == layer):
            tid_of[(lay, track)] = i + 1
    events: List[dict] = []
    for layer in layers:
        events.append({"ph": "M", "pid": pid_of[layer], "tid": 0,
                       "name": "process_name",
                       "args": {"name": f"repro:{layer}"}})
    for (layer, track), tid in sorted(tid_of.items()):
        events.append({"ph": "M", "pid": pid_of[layer], "tid": tid,
                       "name": "thread_name", "args": {"name": track}})
    for rec in records:
        pid = pid_of[rec["layer"]]
        tid = tid_of[(rec["layer"], rec["track"])]
        args = dict(rec.get("args", {}))
        if rec["clock"] == "sim":
            if rec["record"] == "span":
                args["t0_ps"], args["t1_ps"] = rec["t0"], rec["t1"]
            else:
                args["t_ps"] = rec["t"]
        base = {"name": rec["name"], "cat": rec["layer"], "pid": pid,
                "tid": tid, "args": args}
        if rec["record"] == "span":
            t0, t1 = rec["t0"], rec["t1"]
            if rec["clock"] == "sim":
                t0, t1 = t0 / 1e6, t1 / 1e6
            events.append({**base, "ph": "X", "ts": t0,
                           "dur": max(0.0, t1 - t0)})
        else:
            t = rec["t"] / 1e6 if rec["clock"] == "sim" else rec["t"]
            events.append({**base, "ph": "i", "ts": t, "s": "t"})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome(path, source) -> int:
    """Write the Perfetto-loadable JSON; returns the trace-event count."""
    records = source.sorted_records() if isinstance(source, Tracer) \
        else source
    doc = to_chrome(records)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return len(doc["traceEvents"])


def write_files(tracer: Tracer, path) -> int:
    """Write both exports: JSONL at ``path``, Chrome JSON at
    ``<path>.perfetto.json``.  Returns the JSONL line count."""
    n = write_jsonl(path, tracer)
    write_chrome(f"{path}.perfetto.json", tracer)
    return n


# ---------------------------------------------------------------------------
# Summaries (repro trace summarize)
# ---------------------------------------------------------------------------

def _span_wall_us(rec: dict) -> Optional[float]:
    """A span's wall-clock cost, if knowable: wall spans directly, sim
    spans via the ``wall_us`` arg the instrumentation attaches."""
    if rec["clock"] == "wall":
        return rec["t1"] - rec["t0"]
    wall = rec.get("args", {}).get("wall_us")
    return float(wall) if wall is not None else None


def summarize(records) -> dict:
    """Aggregate a trace into per-layer time sinks.

    Returns ``{"records", "layers": {layer: {name: {count, total_us,
    max_us}}}}``.
    """
    layers: Dict[str, Dict[str, dict]] = {}
    for rec in records:
        if rec.get("record") != "span":
            continue
        wall = _span_wall_us(rec)
        if wall is not None:
            # Stitched worker tracks keep their task prefix; fold the
            # prefix away so one name aggregates across tasks.
            agg = layers.setdefault(rec["layer"], {}) \
                        .setdefault(rec["name"],
                                    {"count": 0, "total_us": 0.0,
                                     "max_us": 0.0})
            agg["count"] += 1
            agg["total_us"] += wall
            agg["max_us"] = max(agg["max_us"], wall)
    return {"records": len(records), "layers": layers}


def format_summary(summary: dict, top: int = 8) -> str:
    """Human-readable rendering of :func:`summarize`'s output."""
    lines = [f"== repro.obs.trace: {summary['records']} record(s) =="]
    for layer in LAYERS:
        sinks = summary["layers"].get(layer)
        if not sinks:
            continue
        lines.append(f"[{layer}] top time sinks:")
        ranked = sorted(sinks.items(), key=lambda kv: -kv[1]["total_us"])
        for name, agg in ranked[:top]:
            lines.append(
                f"  {name:<40} n={agg['count']:<6} "
                f"total={agg['total_us'] / 1e3:10.3f}ms "
                f"max={agg['max_us'] / 1e3:8.3f}ms")
        if len(ranked) > top:
            lines.append(f"  ... and {len(ranked) - top} more")
    return "\n".join(lines)


#: This plane's face to :mod:`repro.runtime.probes`.
PROBE = SimpleNamespace(name="trace", capture=_capture,
                        active=lambda: emit_target() is not None,
                        merge=_merge, format=_format)
