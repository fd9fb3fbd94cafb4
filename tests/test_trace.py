"""Tests for ``repro.obs.trace``: cross-layer causal tracing.

Three concerns, in rough order of importance:

1. *Neutrality* — tracing must be pure observation: golden digests and
   cell rows are byte-identical with tracing on or off (the ``--trace``
   flag must never become a heisen-switch).
2. *Determinism of the trace itself* — ids, export order, and the Chrome
   mapping are pure functions of the recorded set, so a fixed run yields
   a structurally fixed trace file.
3. *Fidelity* — spans land on the right layer/track with the right
   linkage (cells → task spans, worker buffers stitched under prefixes).

The module-level task functions live at module scope so the process pool
can pickle them, exactly as in ``test_runtime.py``.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import ExpressPassFlow, ExpressPassParams, runtime
from repro.audit.golden import trace_digest
from repro.net.trace import PortTracer
from repro.obs import trace
from repro.runtime import TaskSpec, run_tasks
from repro.runtime.config import using
from repro.sim.engine import Simulator
from repro.sim.units import MS, US
from repro.topology.simple import dumbbell


@pytest.fixture(autouse=True)
def _clean_trace_state():
    """Each test starts and ends with no ambient tracer or env consumption."""
    trace.reset()
    yield
    trace.reset()


def square(x):
    return {"x": x, "sq": x * x}


def _golden_run():
    """A tiny deterministic scenario; returns per-port transmit digests."""
    sim = Simulator(seed=7)
    topo = dumbbell(sim, n_pairs=2)
    tracers = {
        "fwd": PortTracer(topo.bottleneck_fwd),
        "rev": PortTracer(topo.bottleneck_rev),
    }
    ep = ExpressPassParams(rtt_hint_ps=40 * US)
    ExpressPassFlow(topo.senders[0], topo.receivers[0],
                    size_bytes=30_000, params=ep)
    ExpressPassFlow(topo.senders[1], topo.receivers[1],
                    size_bytes=20_000, start_ps=500 * US, params=ep)
    sim.run(until=4 * MS)
    return {name: trace_digest(t.records) for name, t in tracers.items()}


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------

class TestTracer:
    def test_ids_are_deterministic_per_track(self):
        t = trace.Tracer()
        a = t.span("sim", "a", track="engine", t0=0.0, t1=1.0)
        b = t.span("sim", "b", track="engine", t0=1.0, t1=2.0)
        c = t.span("runtime", "c", track="engine", t0=0.0, t1=1.0)
        assert a == "sim/engine#0"
        assert b == "sim/engine#1"
        assert c == "runtime/engine#0"  # seq counters are per (layer, track)

    def test_bounded_buffer_drops(self):
        t = trace.Tracer(max_records=2)
        assert t.span("sim", "a", track="x", t0=0.0, t1=1.0) is not None
        assert t.span("sim", "b", track="x", t0=0.0, t1=1.0) is not None
        assert t.span("sim", "c", track="x", t0=0.0, t1=1.0) is None
        assert len(t.records) == 2
        assert t.dropped == 1

    def test_ingest_prefixes_and_shifts_wall_only(self):
        child = trace.Tracer()
        child.span("sim", "wall", track="engine", t0=1.0, t1=2.0)
        child.span("sim", "simtime", track="engine", clock="sim",
                   t0=100, t1=200)
        child.event("runtime", "tick", track="lane", t=5.0)
        parent = trace.Tracer()
        n = parent.ingest(child.records, prefix="t3.", shift_us=10.0,
                          dropped=2)
        assert n == 3 and parent.dropped == 2
        by_name = {r["name"]: r for r in parent.records}
        assert by_name["wall"]["track"] == "t3.engine"
        assert by_name["wall"]["t0"] == 11.0
        # Sim timestamps are absolute picoseconds: never shifted.
        assert by_name["simtime"]["t0"] == 100
        assert by_name["tick"]["t"] == 15.0
        # Ids are reassigned under the parent's counters.
        assert by_name["wall"]["id"] == "sim/t3.engine#0"

    def test_ingest_blob_rebases_epoch(self):
        parent = trace.Tracer()
        child = trace.Tracer()
        child.epoch = parent.epoch + 0.5  # child booted half a second later
        child.span("sim", "w", track="e", t0=0.0, t1=1.0)
        blob = {"records": child.records, "epoch": child.epoch, "dropped": 0}
        parent.ingest_blob(blob, prefix="t1.")
        rec = parent.records[-1]
        assert rec["track"] == "t1.e"
        assert rec["t0"] == pytest.approx(500_000.0)

    def test_sorted_records_is_canonical_order(self):
        t = trace.Tracer()
        t.span("sim", "z", track="b", t0=0.0, t1=1.0)
        t.span("cell", "y", track="a", t0=0.0, t1=1.0)
        t.span("sim", "x", track="a", t0=0.0, t1=1.0)
        keys = [(r["layer"], r["track"], r["seq"])
                for r in t.sorted_records()]
        assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# JSONL export and validation
# ---------------------------------------------------------------------------

def _sample_tracer() -> trace.Tracer:
    t = trace.Tracer()
    t.span("runtime", "task", track="task/0", t0=0.0, t1=9.5,
           args={"index": 0})
    t.span("sim", "engine.run", track="t0.engine", clock="sim",
           t0=0, t1=4_000_000_000, args={"wall_us": 9.0})
    t.event("runtime", "deferred", track="task/0", t=3.0,
            args={"backoff_s": 0.5})
    t.span("cell", "demo[seed=1]", track="cell/0", t0=0.0, t1=2.0,
           args={"seed": 1})
    return t


class TestJsonl:
    def test_round_trip_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        trace.write_jsonl(p1, _sample_tracer())
        loaded = trace.load_jsonl(p1)
        trace.write_jsonl(p2, loaded["records"],
                          dropped=loaded["meta"]["dropped"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_validator_accepts_written_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        n = trace.write_jsonl(path, _sample_tracer())
        report = trace.validate_jsonl(path)
        assert report["lines"] == n
        assert report["records"]["meta"] == 1
        assert report["records"]["span"] == 3
        assert report["records"]["event"] == 1

    def test_meta_counts_records_and_tracks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path, _sample_tracer())
        meta = trace.load_jsonl(path)["meta"]
        assert meta["schema"] == trace.SCHEMA
        assert meta["records"] == 4
        assert meta["tracks"] == 3  # task/0, t0.engine, cell/0

    @pytest.mark.parametrize("mutate,hint", [
        (lambda lines: lines[1:], "meta"),             # header gone
        (lambda lines: [lines[0]]
         + [lines[1].replace('"cell"', '"bogus"')]
         + lines[2:], "layer"),
        (lambda lines: lines + [lines[-1]], "id"),     # duplicate id
        (lambda lines: [lines[0], lines[2], lines[1]]
         + lines[3:], "order"),
    ], ids=["missing-meta", "bad-layer", "duplicate-id", "out-of-order"])
    def test_validator_rejects(self, tmp_path, mutate, hint):
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path, _sample_tracer())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mutate(lines)) + "\n")
        with pytest.raises(ValueError):
            trace.validate_jsonl(path)

    def test_validator_rejects_float_sim_times(self, tmp_path):
        t = trace.Tracer()
        t.span("sim", "bad", track="e", clock="sim", t0=0.5, t1=1.5)
        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path, t)
        with pytest.raises(ValueError, match="integer picoseconds"):
            trace.validate_jsonl(path)


# ---------------------------------------------------------------------------
# Chrome / Perfetto export
# ---------------------------------------------------------------------------

class TestChrome:
    def test_layers_become_named_processes(self):
        doc = trace.to_chrome(_sample_tracer().sorted_records())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"repro:runtime", "repro:sim", "repro:cell"}
        threads = {e["args"]["name"] for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"task/0", "t0.engine", "cell/0"} <= threads

    def test_sim_spans_convert_ps_to_us_and_keep_exact_args(self):
        doc = trace.to_chrome(_sample_tracer().sorted_records())
        sim_span = next(e for e in doc["traceEvents"]
                        if e["ph"] == "X" and e["name"] == "engine.run")
        assert sim_span["ts"] == 0.0
        assert sim_span["dur"] == pytest.approx(4000.0)  # 4 ms in us
        assert sim_span["args"]["t1_ps"] == 4_000_000_000

    def test_instants_and_loadable_output(self, tmp_path):
        path = tmp_path / "t.perfetto.json"
        n = trace.write_chrome(path, _sample_tracer())
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1 and instants[0]["name"] == "deferred"

    def test_export_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        trace.write_chrome(p1, _sample_tracer())
        trace.write_chrome(p2, _sample_tracer())
        assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# Ambient activation and capture buffers
# ---------------------------------------------------------------------------

class TestAmbient:
    def test_off_by_default(self):
        assert trace.emit_target() is None

    def test_activate_deactivate(self):
        t = trace.activate()
        assert trace.emit_target() is t
        assert trace.deactivate() is t
        assert trace.emit_target() is None

    def test_collect_buffers_innermost_wins(self):
        with trace.tracing() as ambient:
            with trace.collect() as col:
                target = trace.emit_target()
                assert target is col.tracer and target is not ambient
                target.span("sim", "inner", track="e", t0=0.0, t1=1.0)
            assert trace.emit_target() is ambient
        assert col.blob is not None
        assert [r["name"] for r in col.blob["records"]] == ["inner"]
        assert not ambient.records  # the buffer captured, not the ambient

    def test_env_var_activates_lazily_once(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        trace.reset()
        t = trace.current()
        assert t is not None
        assert trace.emit_target() is t
        # Consumed: after an explicit deactivate the env does not silently
        # re-create a tracer (the file write already has one owner).
        trace.deactivate()
        assert trace.current() is None

    def test_tracing_context_restores_prior(self):
        outer = trace.activate()
        with trace.tracing() as inner:
            assert trace.emit_target() is inner
        assert trace.emit_target() is outer


# ---------------------------------------------------------------------------
# Runtime-layer recording through the real scheduler
# ---------------------------------------------------------------------------

class TestTaskRecording:
    def test_serial_run_records_task_and_worker_spans(self):
        with using(parallel=0, cache_enabled=False):
            with trace.tracing() as t:
                results = run_tasks([TaskSpec(square, {"x": 3},
                                              label="sq3")])
        assert results[0].ok
        spans = [r for r in t.records if r["record"] == "span"
                 and r["layer"] == "runtime"]
        task = next(s for s in spans if s["track"] == "task/0")
        assert task["name"] == "sq3"
        assert task["args"]["outcome"] == "done"
        assert any(s["track"].startswith("worker/") for s in spans)
        assert 0 in t.task_spans
        assert t.task_spans[0]["id"] == task["id"]

    def test_pool_run_stitches_worker_lanes(self):
        specs = [TaskSpec(square, {"x": i}, label=f"sq{i}")
                 for i in range(3)]
        with using(parallel=2, cache_enabled=False):
            with trace.tracing() as t:
                results = run_tasks(specs)
        assert all(r.ok for r in results)
        names = {r["name"] for r in t.records
                 if r["layer"] == "runtime" and r["record"] == "span"
                 and r["track"].startswith("task/")}
        assert {"sq0", "sq1", "sq2"} <= names
        lanes = {r["track"] for r in t.records
                 if r["layer"] == "runtime" and r["name"] == "run"}
        assert lanes and all(l.startswith("worker/") for l in lanes)
        assert set(t.task_spans) == {0, 1, 2}

    def test_cache_hit_outcome_and_annotations(self, tmp_path):
        spec = TaskSpec(square, {"x": 9}, label="annotated")
        with using(parallel=0, cache_dir=tmp_path, cache_enabled=True):
            run_tasks([spec])  # warm, untraced
            with trace.tracing() as t:
                t.annotate("annotated", {"protocol": "expresspass"})
                results = run_tasks([spec])
        assert results[0].cached
        task = next(r for r in t.records if r["track"] == "task/0"
                    and r["record"] == "span")
        assert task["args"]["outcome"] == "cache-hit"
        assert task["args"]["protocol"] == "expresspass"


# ---------------------------------------------------------------------------
# Neutrality: tracing changes nothing it observes
# ---------------------------------------------------------------------------

class TestNeutrality:
    def test_golden_digests_identical_with_tracing(self):
        baseline = _golden_run()
        with trace.tracing() as t:
            traced = _golden_run()
        assert traced == baseline
        assert any(r["name"] == "engine.run" for r in t.records)

    def test_golden_digests_identical_under_env_activation(
            self, monkeypatch, tmp_path):
        baseline = _golden_run()
        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "env.jsonl"))
        trace.reset()
        traced = _golden_run()
        assert trace.current() is not None  # the env actually engaged
        assert traced == baseline

    def test_persistent_row_bit_identical_with_tracing(self):
        from repro.scenarios.cells import run_persistent

        kw = dict(protocol="expresspass", n_flows=3, topology="dumbbell",
                  warmup_ps=2 * MS, measure_ps=2 * MS, bin_ps=500 * US,
                  seed=5, prop_delay_ps=3_333_333)
        untraced = run_persistent(**kw)
        with trace.tracing() as t:
            traced = run_persistent(**kw)
        # Exact dict equality, floats included.
        assert traced == untraced
        phases = [r["name"] for r in t.records if r["layer"] == "sim"
                  and r["name"].startswith("cell.")]
        assert phases == ["cell.build", "cell.warmup", "cell.measure",
                          "cell.finalize"]

    def test_matrix_cells_link_to_task_spans(self):
        from repro.scenarios import Scenario, run_matrix

        spec = {
            "schema": "repro.scenarios/v1",
            "name": "trace-cells",
            "topology": {"kind": "dumbbell", "prop_delay_ps": 3_456_789},
            "workload": {"kind": "persistent", "n_flows": 2},
            "transport": {"protocol": "expresspass"},
            "timing": {"warmup_ps": 2 * MS, "measure_ps": 2 * MS},
        }
        scenario = Scenario.from_dict(spec)
        with using(cache_enabled=False):
            untraced = run_matrix(scenario)
            with trace.tracing() as t:
                traced = run_matrix(scenario)
        assert [r.value for r in untraced.results] == \
            [r.value for r in traced.results]
        cell = next(r for r in t.records if r["layer"] == "cell")
        assert cell["link"] in {r["id"] for r in t.records}
        assert cell["args"]["scenario"] == "trace-cells"
        assert cell["args"]["seed"] == 1


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

class TestSummarize:
    def test_layer_sinks(self):
        summary = trace.summarize(_sample_tracer().sorted_records())
        assert summary["layers"]["runtime"]["task"]["count"] == 1
        assert summary["layers"]["runtime"]["task"]["total_us"] == 9.5
        # Sim spans contribute their wall_us arg, not picoseconds.
        assert summary["layers"]["sim"]["engine.run"]["total_us"] == 9.0
        assert summary["layers"]["cell"]["demo[seed=1]"]["max_us"] == 2.0

    def test_format_summary_renders(self):
        text = trace.format_summary(
            trace.summarize(_sample_tracer().sorted_records()))
        assert "top time sinks" in text
        assert "engine.run" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_validate_and_summarize_verbs(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        trace.write_jsonl(path, _sample_tracer())
        assert main(["trace", "validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["trace", "summarize", str(path)]) == 0
        assert "top time sinks" in capsys.readouterr().out

    def test_verbs_fail_cleanly_on_bad_input(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "nope.jsonl"
        assert main(["trace", "validate", str(missing)]) == 1
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        for verb in ("validate", "summarize"):
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no raw UserWarning leaks
                assert main(["trace", verb, str(bad)]) == 1
            out, err = capsys.readouterr()
            # The torn-line notice and the refusal, one plain line each.
            assert out == "" and len(err.splitlines()) == 2
            assert all(line.startswith("trace: ")
                       for line in err.splitlines())
            assert "meta" in err.splitlines()[-1]
