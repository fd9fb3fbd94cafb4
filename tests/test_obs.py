"""Tests for repro.obs: the unified metrics / tracing / export plane.

Covers: metric primitives (log-bucketed histogram, counters, series merge
algebra); FlowSpan lifecycle ordering on a real ExpressPass run; final
counters agreeing exactly with port/flow state; metrics being observation-
only (metered flow outcomes identical to unmetered); the JSONL export
round-tripping counters/series/histograms exactly and its validator
rejecting malformed files; sampler stop semantics (idempotent, final
sample); the ambient capture / REPRO_METRICS activation paths; the sweep
scheduler shipping summaries on ``TaskResult.probes["metrics"]``; and the
``repro run --metrics`` / ``--obs-jsonl`` CLI.
"""

import json
import os

import pytest

from repro import runtime
from repro import obs as obs_mod
from repro.core import ExpressPassFlow, ExpressPassParams
from repro.metrics.timeseries import FlowThroughputSampler, QueueSampler
from repro.obs import (
    Histogram,
    MetricsRegistry,
    capture,
    export,
    format_summary,
    merge_summaries,
)
from repro.runtime import probes, run_tasks
from repro.runtime.task import TaskSpec
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from tests.conftest import small_dumbbell

EP = dict(params=ExpressPassParams(rtt_hint_ps=40 * US))


@pytest.fixture(autouse=True)
def _isolate_ambient_metrics(monkeypatch):
    """These tests manage their own registries; an ambient REPRO_METRICS=1
    (e.g. a metered CI run) would auto-attach at Network.finalize()
    and collide.  Activation-path tests set the variable back explicitly."""
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    monkeypatch.delenv("REPRO_METRICS_INTERVAL_PS", raising=False)


def _run_dumbbell(seed=7, metered=False, sizes=(60_000, 25_000)):
    """One deterministic dumbbell run; returns (observables, summary)."""
    def build_and_run():
        sim = Simulator(seed=seed)
        topo = small_dumbbell(sim, n_pairs=len(sizes))
        flows = [ExpressPassFlow(topo.senders[i], topo.receivers[i], size,
                                 **EP)
                 for i, size in enumerate(sizes)]
        sim.run()
        return flows, topo

    if metered:
        with capture() as cap:
            flows, topo = build_and_run()
        summary = cap.summary
    else:
        flows, topo = build_and_run()
        summary = None
    observables = tuple((f.fid, f.finish_ps, f.bytes_delivered,
                         f.credits_sent, f.credits_wasted) for f in flows)
    return observables, summary


# -- metric primitives -------------------------------------------------------

class TestHistogram:
    def test_buckets_are_log2(self):
        h = Histogram("x")
        for v in (0, 1, 2, 3, 4, 1023, 1024):
            h.record(v)
        assert h.buckets[0] == 1          # exactly 0
        assert h.buckets[1] == 1          # 1
        assert h.buckets[2] == 2          # 2, 3
        assert h.buckets[10] == 1         # 1023
        assert h.buckets[11] == 1         # 1024
        assert h.count == 7 and h.vmin == 0 and h.vmax == 1024

    def test_exact_moments(self):
        h = Histogram("x")
        for v in (10, 20, 30):
            h.record(v)
        assert h.total == 60 and h.mean() == pytest.approx(20.0)

    def test_percentile_clamped_to_observed(self):
        h = Histogram("x")
        h.record(100)
        # bucket edge for 100 is 127, but the only sample is 100
        assert h.percentile(50) == 100
        assert h.percentile(99) == 100

    def test_percentile_spread(self):
        h = Histogram("x")
        for _ in range(99):
            h.record(10)
        h.record(10_000)
        assert h.percentile(50) <= 15
        assert h.percentile(100) == 10_000
        assert h.percentile(50) is not None

    def test_empty(self):
        h = Histogram("x")
        assert h.percentile(50) is None and h.mean() is None

    def test_dict_round_trip_and_merge(self):
        a, b = Histogram("x"), Histogram("x")
        for v in (1, 5, 9):
            a.record(v)
        for v in (2, 100):
            b.record(v)
        rt = Histogram.from_dict("x", a.as_dict())
        assert rt.as_dict() == a.as_dict()
        rt.merge_dict(b.as_dict())
        assert rt.count == 5 and rt.total == 117
        assert rt.vmin == 1 and rt.vmax == 100


class TestRegistryPrimitives:
    def test_create_on_demand_and_identity(self, sim):
        reg = MetricsRegistry.attach(sim)
        assert MetricsRegistry.attach(sim) is reg
        assert sim.metrics is reg
        c = reg.counter("a")
        c.inc()
        c.inc(4)
        assert reg.counter("a").value == 5
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == 2.5
        s = reg.add_series("s")
        s.append(10, 1.0)
        assert reg.add_series("s") is s and len(s) == 1

    def test_snapshot_polls_sources_and_dedups(self, sim):
        reg = MetricsRegistry.attach(sim)
        reg.add_source("src", lambda: 42)
        reg.snapshot()
        reg.snapshot()  # same sim time: no duplicate point
        assert reg.series["src"].values == [42]
        assert reg.snapshots_taken == 2

    def test_snapshot_event_stops_at_quiescence(self, sim):
        reg = MetricsRegistry.attach(sim)
        reg.add_source("src", lambda: 0)
        sim.schedule(5 * MS, lambda: None)
        reg.start_snapshots(1 * MS)
        sim.run()  # must terminate despite the self-rescheduling snapshot
        assert sim.now >= 5 * MS
        assert len(reg.series["src"]) >= 5


class TestMergeSummaries:
    def test_counters_sum_and_histograms_merge(self):
        h = Histogram("flow.fct_ps")
        h.record(100)
        s1 = {"runs": 1, "counters": {"a": 2}, "histograms":
              {"flow.fct_ps": h.as_dict()}, "series": {}, "events": [],
              "spans": [], "flows": 1, "snapshots": 0, "gauges": {}}
        merged = merge_summaries([s1, s1, None])
        assert merged["runs"] == 2
        assert merged["counters"]["a"] == 4
        assert merged["histograms"]["flow.fct_ps"]["count"] == 2

    def test_series_collisions_uniquified(self):
        s = {"runs": 1, "counters": {}, "histograms": {}, "gauges": {},
             "series": {"q": {"times_ps": [1], "values": [2]}},
             "events": [], "spans": [], "flows": 0, "snapshots": 0}
        merged = merge_summaries([s, s])
        assert set(merged["series"]) == {"q", "q#2"}

    def test_format_summary_smoke(self):
        _, summary = _run_dumbbell(metered=True)
        text = format_summary(summary)
        assert "repro.obs" in text and "net.data.tx_pkts" in text


# -- flow spans on a real run ------------------------------------------------

class TestFlowSpans:
    def test_lifecycle_ordering(self):
        _, summary = _run_dumbbell(metered=True)
        assert summary["runs"] == 1 and summary["flows"] == 2
        for span in summary["spans"]:
            assert span["protocol"] == "ExpressPassFlow"
            assert (span["created_ps"] <= span["start_ps"]
                    <= span["first_credit_ps"] <= span["first_data_ps"]
                    <= span["finish_ps"])
            assert span["feedback_updates"] > 0
        kinds = [e[1] for e in summary["events"]]
        assert kinds.count("start") == 2
        assert kinds.count("first_credit") == 2
        assert kinds.count("complete") == 2
        times = [e[0] for e in summary["events"]]
        assert times == sorted(times)

    def test_final_counters_exact(self):
        with capture() as cap:
            sim = Simulator(seed=3)
            topo = small_dumbbell(sim)
            flows = [ExpressPassFlow(s, r, 40_000, **EP)
                     for s, r in zip(topo.senders, topo.receivers)]
            sim.run()
        c = cap.summary["counters"]
        assert c["ep.credits_sent"] == sum(f.credits_sent for f in flows)
        assert c["ep.credits_wasted"] == sum(f.credits_wasted for f in flows)
        assert c["net.data.tx_pkts"] == sum(
            p.stats.data_pkts_sent for p in topo.net.ports)
        assert c["net.credit.tx_pkts"] == sum(
            p.stats.credit_pkts_sent for p in topo.net.ports)
        assert c["flow.completed"] == 2
        # two competing flows: the shared credit bucket throttles
        assert c["net.credit.throttled"] > 0
        hist = cap.summary["histograms"]["flow.fct_ps"]
        assert hist["count"] == 2
        assert hist["sum"] == sum(f.fct_ps for f in flows)
        rtt = cap.summary["histograms"]["expresspass.credit_rtt_ps"]
        assert rtt["count"] > 0

    def test_fct_histogram_all_flows(self):
        _, summary = _run_dumbbell(metered=True)
        assert summary["histograms"]["flow.fct_ps"]["count"] == 2

    def test_stop_marks_span(self):
        with capture() as cap:
            sim = Simulator(seed=3)
            topo = small_dumbbell(sim)
            flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                                   **EP)
            sim.schedule(2 * MS, flow.stop)
            sim.run(until=3 * MS)
        span = cap.summary["spans"][0]
        assert span["stop_ps"] == 2 * MS
        assert span["finish_ps"] is None
        assert cap.summary["counters"]["flow.stopped"] == 1

    def test_unknown_span_event_rejected(self, sim):
        reg = MetricsRegistry.attach(sim)

        class _FakeFlow:
            fid = 1
            size_bytes = 0
            sim = None

        _FakeFlow.sim = sim
        span = reg.register_flow(_FakeFlow())
        with pytest.raises(ValueError):
            span.mark("no-such-event", 0)


class TestObservationOnly:
    def test_metered_run_same_flow_outcomes(self):
        plain, _ = _run_dumbbell(metered=False)
        metered, summary = _run_dumbbell(metered=True)
        assert plain == metered
        assert summary["counters"]["flow.completed"] == 2

    def test_attach_does_not_touch_port_flags(self, sim):
        topo = small_dumbbell(sim)
        flags_before = [p._flags for p in topo.net.ports]
        reg = MetricsRegistry.attach(sim)
        reg.attach_network(topo.net)
        assert [p._flags for p in topo.net.ports] == flags_before
        assert all(p.obs is reg for p in topo.net.ports)


# -- exporters ---------------------------------------------------------------

class TestExporters:
    @pytest.fixture()
    def summary(self):
        _, summary = _run_dumbbell(metered=True)
        return summary

    def test_jsonl_round_trip(self, tmp_path, summary):
        path = tmp_path / "run.jsonl"
        export.write_jsonl(path, summary)
        stats = export.validate_jsonl(path)
        assert stats["records"]["meta"] == 1
        loaded = export.load_jsonl(path)
        assert loaded["counters"] == summary["counters"]
        assert loaded["histograms"] == summary["histograms"]
        assert loaded["series"] == summary["series"]
        assert loaded["spans"] == summary["spans"]
        assert loaded["events"] == [list(e) for e in summary["events"]]

    def test_jsonl_validator_rejects_garbage(self, tmp_path, summary):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            export.validate_jsonl(path)
        path.write_text('{"record": "counter", "name": "a", "value": 1}\n')
        with pytest.raises(ValueError, match="meta"):
            export.validate_jsonl(path)
        export.write_jsonl(path, summary)
        lines = path.read_text().splitlines()
        lines.append(json.dumps(
            {"record": "counter", "name": "x", "value": -1}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="int >= 0"):
            export.validate_jsonl(path)


# -- sampler lifecycle (satellite) -------------------------------------------

class TestSamplerLifecycle:
    def test_queue_sampler_stop_idempotent_with_final_sample(self, sim):
        topo = small_dumbbell(sim)
        sampler = QueueSampler(sim, topo.bottleneck_fwd, interval_ps=1 * MS)
        sim.run(until=2_500_000)  # 2.5 us: mid-interval
        n = len(sampler.samples)
        sampler.stop()
        # final partial-interval sample captured exactly once
        assert len(sampler.samples) == n + 1
        assert sampler.samples[-1][0] == sim.now
        sampler.stop()
        assert len(sampler.samples) == n + 1

    def test_throughput_sampler_final_partial_interval(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None, **EP)
        sampler = FlowThroughputSampler(sim, [flow], interval_ps=1 * MS)
        sim.run(until=2_500_000)  # 2.5 us: stop mid-first-interval
        flow.stop()
        assert len(sampler.times_ps) == 0
        sampler.stop()
        assert len(sampler.times_ps) == 1  # the partial interval
        sampler.stop()
        assert len(sampler.times_ps) == 1

    def test_registry_sampler_mirrors_identical_values(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        reg = MetricsRegistry.attach(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None, **EP)
        tput = reg.sample_throughput([flow], 1 * MS)
        qs = reg.sample_queue(topo.bottleneck_fwd, 1 * MS)
        sim.run(until=5 * MS)
        flow.stop()
        reg.finalize()
        mirror = reg.series[f"throughput.f{flow.fid}_bps"]
        assert mirror.values == tput.series[flow]
        assert mirror.times_ps == tput.times_ps
        qname = f"queue.{topo.bottleneck_fwd.name}.bytes"
        assert reg.series[qname].values == [b for _, b in qs.samples]

    def test_track_late_flow_backfills_mirror(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=2)
        reg = MetricsRegistry.attach(sim)
        f0 = ExpressPassFlow(topo.senders[0], topo.receivers[0], None, **EP)
        sampler = reg.sample_throughput([f0], 1 * MS)
        sim.run(until=2 * MS)
        f1 = ExpressPassFlow(topo.senders[1], topo.receivers[1], None, **EP)
        sampler.track(f1)
        sim.run(until=4 * MS)
        f0.stop()
        f1.stop()
        m0 = reg.series[f"throughput.f{f0.fid}_bps"]
        m1 = reg.series[f"throughput.f{f1.fid}_bps"]
        assert len(m0) == len(m1)
        assert m1.values[:2] == [0.0, 0.0]  # backfilled pre-track intervals


# -- activation paths --------------------------------------------------------

class TestActivation:
    def test_disabled_by_default(self, sim):
        topo = small_dumbbell(sim)
        assert sim.metrics is None
        assert all(p.obs is None for p in topo.net.ports)

    def test_env_var_attaches(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        assert sim.metrics is not None
        assert all(p.obs is sim.metrics for p in topo.net.ports)

    def test_env_interval_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "1")
        monkeypatch.setenv("REPRO_METRICS_INTERVAL_PS", str(2 * MS))
        sim = Simulator(seed=1)
        small_dumbbell(sim)
        assert sim.metrics.snapshot_interval_ps == 2 * MS

    def test_capture_attaches_and_snapshots(self):
        with capture() as cap:
            sim = Simulator(seed=1)
            topo = small_dumbbell(sim)
            flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                                   **EP)
            sim.schedule(5 * MS, flow.stop)
            sim.run(until=5 * MS)
        summary = cap.summary
        assert summary["snapshots"] >= 5  # 1 ms cadence over 5 ms
        series = summary["series"]["tx.data.bytes.total"]
        assert series["values"][-1] > 0
        assert series["values"] == sorted(series["values"])  # monotone bytes

    def test_nested_capture_not_double_counted(self):
        with capture() as outer:
            with capture() as inner:
                _run_dumbbell(metered=False)  # registry claimed by inner
        assert inner.summary["runs"] == 1
        assert outer.summary["runs"] == 0


# -- scheduler integration ---------------------------------------------------

def _sweep_point(seed: int) -> tuple:
    observables, _ = _run_dumbbell(seed=seed)
    return observables


class TestSchedulerIntegration:
    def test_task_results_carry_metrics(self):
        specs = [TaskSpec(fn=_sweep_point, kwargs={"seed": s},
                          label=f"seed{s}") for s in (5, 6)]
        with probes.session(("metrics",)) as sess, \
                runtime.using(cache_enabled=False, progress=False, retries=0,
                              metrics=True, parallel=0):
            results = run_tasks(list(specs), name="obs-sweep")
        assert all(r.ok for r in results)
        for r in results:
            assert r.probes.get("metrics") is not None
            assert r.probes["metrics"]["counters"]["flow.completed"] == 2
        session = sess.merged("metrics")
        assert session["runs"] == 2
        assert session["counters"]["flow.completed"] == 4

    def test_metrics_off_plain_sweep(self):
        # metrics=False explicitly: the suite may run under REPRO_METRICS=1
        # (a metered CI run), which the session config would inherit.
        specs = [TaskSpec(fn=_sweep_point, kwargs={"seed": 5}, label="s")]
        with runtime.using(cache_enabled=False, progress=False, retries=0,
                           parallel=0, metrics=False):
            results = run_tasks(list(specs), name="plain-sweep")
        assert results[0].ok and results[0].probes.get("metrics") is None

    def test_parallel_workers_ship_summaries(self):
        specs = [TaskSpec(fn=_sweep_point, kwargs={"seed": s},
                          label=f"seed{s}") for s in (5, 6)]
        with runtime.using(cache_enabled=False, progress=False, retries=0,
                           metrics=True, parallel=2):
            results = run_tasks(list(specs), name="obs-par")
        assert all(r.ok for r in results)
        assert all(r.probes.get("metrics") is not None for r in results)
        # parallel results identical to what the serial path measures
        serial, _ = _run_dumbbell(seed=5)
        assert results[0].value == serial


# -- CLI ---------------------------------------------------------------------

class TestCli:
    def test_run_metrics_flag(self, capsys):
        from repro.cli import main

        rc = main(["run", "fig13", "--metrics",
                   "--set", "n_flows=2", "--set", "stagger_ps=2000000000",
                   "--set", "sample_ps=1000000000"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "repro.obs" in err and "flow(s)" in err

    def test_run_obs_jsonl_exports(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "m.jsonl"
        rc = main(["run", "fig13", "--obs-jsonl", str(jsonl),
                   "--set", "n_flows=2", "--set", "stagger_ps=2000000000",
                   "--set", "sample_ps=1000000000"])
        assert rc == 0
        assert export.validate_jsonl(jsonl)["records"]["counter"] > 0
        assert export.load_jsonl(jsonl)["flows"] == 2
        err = capsys.readouterr().err
        assert "repro.obs" in err and f"obs record(s) to {jsonl}" in err
