"""repro.perf: the optimisations must be invisible except in speed.

Determinism is the substrate's core contract, so each hot-path feature —
heap compaction, the port fast path, the profiler — is run against the
golden-trace scenarios at the edges of its threshold (or, for the port fast
path, with a no-op hook forcing every port through the checked path),
asserting bit-identical payloads and event counts.  Plus regression tests
for the structural properties the features provide (bounded heap growth,
O(1) pending, handle-less heap entries).  Deferred transmit completions
have their own eager oracle in ``tests/test_lazy_completion.py``.
"""

import pytest

from repro import perf
from repro.net.port import Port
from repro.perf import profile
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.topology import dumbbell
from tests.test_golden_traces import SCENARIOS, build_payload


def _events_processed(name: str) -> int:
    tracers = SCENARIOS[name]()
    sim = next(iter(tracers.values())).port.sim
    return sim.events_processed


@pytest.fixture
def defaults(monkeypatch):
    """Pin the perf knobs to their shipped defaults (env-independent)."""
    monkeypatch.setattr(perf, "COMPACT_MIN", 256)
    monkeypatch.setattr(perf, "COMPACT_RATIO", 1)


_port_init = Port.__init__


def _hooked_port_init(port, *args, **kwargs):
    """``Port.__init__`` plus a no-op ``on_transmit`` hook: a nonzero flags
    word, so the port never takes the branch-free transmit path."""
    _port_init(port, *args, **kwargs)
    port.on_transmit = lambda pkt: None


#: ``monkeypatch.setattr`` arguments routing every new port through the
#: fully-checked path.
CHECKED_PATH = (Port, "__init__", _hooked_port_init)


# --- determinism: features on == features off --------------------------------

@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_disabling_all_optimisations_is_bit_identical(
        name, defaults, monkeypatch):
    fast = build_payload(name)
    fast_events = _events_processed(name)
    monkeypatch.setattr(perf, "COMPACT_MIN", 0)
    monkeypatch.setattr(*CHECKED_PATH)
    slow = build_payload(name)
    assert slow == fast
    assert _events_processed(name) == fast_events


@pytest.mark.parametrize("knob", [
    (perf, "COMPACT_MIN", 0),     # no compaction
    (perf, "COMPACT_MIN", 1),     # compact as aggressively as possible
    CHECKED_PATH,                 # no port fast path
])
def test_each_knob_alone_is_bit_identical(knob, defaults, monkeypatch):
    name = "dumbbell_expresspass"
    reference = build_payload(name)
    monkeypatch.setattr(*knob)
    assert build_payload(name) == reference


def test_noop_hook_takes_every_port_off_the_fast_path(monkeypatch):
    monkeypatch.setattr(*CHECKED_PATH)
    topo = dumbbell(Simulator(seed=0), n_pairs=1)
    assert all(port._flags for port in topo.net.ports)


def test_profiler_does_not_perturb_simulation(defaults):
    name = "star_cross_expresspass"
    reference = build_payload(name)
    ref_events = _events_processed(name)
    with profile.profiled() as session:
        payload = build_payload(name)
    assert payload == reference
    report = session.report
    # Exact accounting: one fire() per processed event, across both the
    # payload build and the _events_processed rerun... only the first runs
    # inside the session, so compare against one build's count.
    assert report.events == ref_events
    assert report.simulators == 1
    assert sum(n for _, n, _ in report.top_callbacks(limit=10**6)) \
        == report.events


# --- heap growth under cancellation ------------------------------------------

def test_cancel_storm_keeps_heap_bounded(defaults):
    """10^5 schedule+cancel cycles must not grow the heap past the ratio."""
    sim = Simulator(seed=0)
    anchor = sim.schedule(10**9, lambda: None)  # one live event throughout
    for i in range(100_000):
        sim.schedule(1000 + i, lambda: None).cancel()
        # live=1, so the heap may hold at most COMPACT_MIN garbage entries
        # (plus the live anchor) before compaction fires.
        assert len(sim._heap) <= perf.COMPACT_MIN + 1
        assert sim.pending() == 1
    anchor.cancel()
    sim.run()
    assert sim.events_processed == 0
    assert sim.pending() == 0


def test_no_compaction_when_disabled(monkeypatch):
    monkeypatch.setattr(perf, "COMPACT_MIN", 0)
    sim = Simulator(seed=0)
    for i in range(5_000):
        sim.schedule(1000 + i, lambda: None).cancel()
    assert len(sim._heap) == 5_000  # garbage retained, reaped only on run
    assert sim.pending() == 0
    sim.run()
    assert sim.events_processed == 0
    assert len(sim._heap) == 0


def test_compaction_preserves_pop_order(defaults, monkeypatch):
    monkeypatch.setattr(perf, "COMPACT_MIN", 8)
    sim = Simulator(seed=0)
    fired = []
    for i in (5, 3, 9, 1, 7, 0, 8, 2, 6, 4):
        sim.schedule(i * 1000, fired.append, i)
    for _ in range(50):  # trigger repeated compactions around the live set
        doomed = [sim.schedule(10**6 + i, lambda: None) for i in range(10)]
        for event in doomed:
            event.cancel()
    sim.run(until=9_000)
    assert fired == sorted(fired)
    assert len(fired) == 10


# --- handle-less entries and reserved keys -----------------------------------

def test_handle_events_are_never_recycled(defaults):
    """A fired handle can be cancelled harmlessly and is never reused."""
    sim = Simulator(seed=0)
    events = [sim.schedule(100, lambda: None) for _ in range(50)]
    sim.run()
    for event in events:
        event.cancel()
    assert sim.pending() == 0
    fresh = [sim.schedule(100, lambda: None) for _ in range(50)]
    sim.schedule_unref(100, lambda: None)
    assert not {id(e) for e in events} & {id(e) for e in fresh}
    assert all(e.cancelled for e in events)
    assert sim.run() == 51  # the stale cancels touched nothing live


def test_compact_and_peek_time_with_handleless_entries_at_the_head(
        defaults, monkeypatch):
    monkeypatch.setattr(perf, "COMPACT_MIN", 4)
    sim = Simulator(seed=0)
    fired = []
    sim.schedule_unref(10, fired.append, "unref")   # heap head, no Event
    doomed = [sim.schedule(20 + i, fired.append, i) for i in range(8)]
    sim.schedule(50, fired.append, "handle")
    assert sim.peek_time() == 10
    for event in doomed:       # crosses COMPACT_MIN with live < cancelled
        event.cancel()
    assert len(sim._heap) < 10 and sim.pending() == 2
    assert sim.peek_time() == 10
    sim.run(until=10)
    assert sim.peek_time() == 50
    sim.run()
    assert fired == ["unref", "handle"]


def test_peek_time_reaps_cancelled_head_before_a_handleless_entry(monkeypatch):
    monkeypatch.setattr(perf, "COMPACT_MIN", 0)
    sim = Simulator(seed=0)
    sim.schedule(5, lambda: None).cancel()
    sim.schedule_unref(7, lambda: None)
    assert sim.peek_time() == 7
    assert len(sim._heap) == 1 and sim.pending() == 1


def test_push_reserved_pops_at_the_reserved_position():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(10, fired.append, "before")
    key = sim.reserve_key()
    sim.schedule(10, fired.append, "after")
    sim.push_reserved(10, key, fired.append, "reserved")
    sim.run()
    assert fired == ["before", "reserved", "after"]


def test_dispatch_key_tracks_the_run_loop():
    sim = Simulator(seed=0)
    seen = []
    for _ in range(3):
        sim.schedule(10, lambda: seen.append(sim.dispatch_key))
    sim.schedule(20, lambda: None)
    assert sim.run(max_events=2) == 2
    assert seen == [1, 2] and sim.dispatch_key == 2   # stopped mid-instant
    sim.run(until=5)                # behind the clock: nothing dispatched
    assert sim.now == 10 and sim.dispatch_key == 2
    sim.run(until=10)               # everything due at ``now`` has fired
    assert seen == [1, 2, 3] and sim.dispatch_key == Simulator._KEY_END
    sim.run(max_events=1)
    assert sim.dispatch_key == 4    # drained by the limit, not the loop
    sim.run()
    assert sim.dispatch_key == Simulator._KEY_END


def test_push_reserved_into_the_past_raises():
    sim = Simulator(seed=0)
    key = sim.reserve_key()
    sim.run(until=100)
    with pytest.raises(ValueError, match="into the past"):
        sim.push_reserved(99, key, lambda: None)
    sim.push_reserved(100, key, lambda: None)  # ``now`` itself is allowed
    assert sim.run() == 1


# --- profiler internals -------------------------------------------------------

def test_profiler_counts_and_reaps():
    with profile.profiled(sample_every=4) as session:
        sim = Simulator(seed=0)
        for i in range(40):
            sim.schedule(i * 1000, lambda: None)
        for i in range(10):
            sim.schedule(10**6 + i, lambda: None).cancel()
        sim.run()
    report = session.report
    assert report.events == 40
    assert report.reaped == 10
    assert report.samples == 40 // 4
    assert report.as_dict()["events"] == 40
    assert "repro.perf.profile" in report.format()


def test_profiler_report_merges_task_summaries():
    with profile.profiled() as session:
        sim = Simulator(seed=0)
        sim.schedule(100, lambda: None)
        sim.run()
    inner = session.report.as_dict()
    merged = profile.ProfileReport()
    merged.add_summary(inner)
    merged.add_summary(inner)
    assert merged.events == 2 * session.report.events
    assert merged.simulators == 2


def test_sessions_nest_without_double_counting():
    with profile.profiled() as outer:
        sim_a = Simulator(seed=0)
        sim_a.schedule(100, lambda: None)
        with profile.profiled() as inner:
            sim_b = Simulator(seed=1)
            for _ in range(3):
                sim_b.schedule(100, lambda: None)
            sim_b.run()
        sim_a.run()
    assert inner.report.events == 3      # inner claimed sim_b...
    assert outer.report.events == 1      # ...so outer saw only sim_a
    assert engine.on_simulator_created is None  # hook fully unwound


def test_runtime_profile_knob_ships_summaries():
    from repro import runtime
    from repro.runtime.task import TaskSpec

    from repro.runtime import probes

    specs = [TaskSpec(_events_processed, {"name": "dumbbell_dctcp"})]
    with probes.session(("profile",)) as sess, \
            runtime.using(parallel=0, cache_enabled=False, profile=True,
                          progress=False):
        results = runtime.run_tasks(specs, name="profiled")
    assert results[0].ok
    summary = results[0].probes.get("profile")
    assert summary is not None and summary["events"] == results[0].value
    label, banked = sess.banked[-1]
    assert label == results[0].label and banked["profile"] == summary


# --- the BENCH_simcore --check gate ------------------------------------------

def test_bench_check_fails_on_row_missing_from_run():
    from benchmarks.bench_simulator_throughput import check

    committed = {"current": {"event_loop": 1_000_000,
                             "expresspass_dumbbell": 250_000}}
    assert check({"event_loop": 1_000_000,
                  "expresspass_dumbbell": 250_000}, committed) == []
    failures = check({"event_loop": 1_000_000}, committed)
    assert len(failures) == 1 and "expresspass_dumbbell" in failures[0]
    assert any("regression" in f
               for f in check({"event_loop": 700_000,
                               "expresspass_dumbbell": 250_000}, committed))
