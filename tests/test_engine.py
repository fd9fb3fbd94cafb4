"""Tests for the discrete-event scheduler."""

import bisect
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import perf
from repro.perf.profile import Profiler
from repro.sim.engine import Simulator, Timer


class TestScheduling:
    def test_runs_in_time_order(self, sim):
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        for tag in "abc":
            sim.schedule(5, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]

    def test_nested_scheduling(self, sim):
        seen = []

        def outer():
            sim.schedule(5, lambda: seen.append(sim.now))

        sim.schedule(10, outer)
        sim.run()
        assert seen == [15]

    def test_cannot_schedule_in_past(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10, fired.append, 1)
        event.cancel()
        sim.run()
        assert fired == []

    def test_double_cancel_is_safe(self, sim):
        event = sim.schedule(10, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.run() == 0

    def test_cancel_from_another_event(self, sim):
        fired = []
        later = sim.schedule(20, fired.append, "later")
        sim.schedule(10, later.cancel)
        sim.run()
        assert fired == []


class TestRunControl:
    def test_until_is_inclusive(self, sim):
        fired = []
        sim.schedule(100, fired.append, 1)
        sim.schedule(101, fired.append, 2)
        sim.run(until=100)
        assert fired == [1]
        assert sim.now == 100

    def test_until_advances_clock_when_idle(self, sim):
        sim.run(until=500)
        assert sim.now == 500

    def test_max_events(self, sim):
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.run() == 7

    def test_until_in_the_past_never_rewinds_clock(self, sim):
        fired = []
        sim.schedule(100, fired.append, 1)
        sim.run(until=50)
        sim.run(until=5)      # stale bound, event still pending
        assert sim.now == 50
        sim.profiler = Profiler()
        sim.run(until=5)      # same on the profiled loop
        assert sim.now == 50
        assert fired == [] and sim.pending() == 1

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_peek_time_skips_cancelled(self, sim):
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        first.cancel()
        assert sim.peek_time() == 20

    def test_pending_counts_live_events(self, sim):
        events = [sim.schedule(i + 1, lambda: None) for i in range(4)]
        events[0].cancel()
        assert sim.pending() == 3

    def test_cancel_after_fire_does_not_skew_pending(self, sim):
        fired = sim.schedule(10, lambda: None)
        live = sim.schedule(1000, lambda: None)
        sim.run(until=10)
        fired.cancel()  # late cancel of an already-fired event: a no-op
        assert sim.pending() == 1
        live.cancel()
        assert sim.pending() == 0


class TestRngStreams:
    def test_streams_are_independent(self):
        sim = Simulator(seed=7)
        a1 = [sim.rng("a").random() for _ in range(5)]
        sim2 = Simulator(seed=7)
        _ = [sim2.rng("b").random() for _ in range(100)]  # consume another stream
        a2 = [sim2.rng("a").random() for _ in range(5)]
        assert a1 == a2

    def test_same_name_same_stream(self, sim):
        assert sim.rng("x") is sim.rng("x")

    def test_different_seeds_differ(self):
        x = Simulator(seed=1).rng("s").random()
        y = Simulator(seed=2).rng("s").random()
        assert x != y

    def test_crc32_seed_collision_raises(self, sim):
        # "plumless" and "buckeroo" are a known CRC32 collision pair, so
        # their derived stream seeds coincide for every master seed.  The
        # streams would silently share one generator; creation must fail.
        sim.rng("plumless")
        with pytest.raises(RuntimeError, match="collides"):
            sim.rng("buckeroo")
        # The established stream is unharmed and stays reusable.
        assert sim.rng("plumless") is sim.rng("plumless")


class TestPerEntityRngStreams:
    """``rng_for``: ``(seed, family, index)`` alone fixes the sequence."""

    @staticmethod
    def _draws(stream, n=6):
        return [stream.random() for _ in range(n)]

    def test_sequence_is_fixed_by_seed_family_and_index(self):
        expected = self._draws(Simulator(seed=7).rng_for("flow", 3))
        # Whatever else was created or drawn from first, in any order.
        sim = Simulator(seed=7)
        others = [sim.rng_for("flow", i) for i in (9, 2, 4)]
        others.append(sim.rng_for("host-delay", 3))
        for stream in others:
            stream.random()
        sim.rng("named").random()
        assert self._draws(sim.rng_for("flow", 3)) == expected
        # Each call is a fresh generator at the start of that sequence.
        assert self._draws(sim.rng_for("flow", 3)) == expected

    def test_interleaved_draws_do_not_couple_entities(self):
        solo = Simulator(seed=7)
        a_alone = self._draws(solo.rng_for("flow", 1))
        b_alone = self._draws(solo.rng_for("flow", 2))
        sim = Simulator(seed=7)
        a, b = sim.rng_for("flow", 1), sim.rng_for("flow", 2)
        mixed = [(a.random(), b.random()) for _ in range(6)]
        assert [x for x, _ in mixed] == a_alone
        assert [y for _, y in mixed] == b_alone

    def test_indices_families_and_seeds_all_differ(self):
        base = self._draws(Simulator(seed=7).rng_for("flow", 1))
        assert self._draws(Simulator(seed=7).rng_for("flow", 2)) != base
        assert self._draws(Simulator(seed=7).rng_for("host", 1)) != base
        assert self._draws(Simulator(seed=8).rng_for("flow", 1)) != base

    def test_never_advances_or_registers_a_named_stream(self):
        expected = self._draws(Simulator(seed=7).rng("flow"))
        sim = Simulator(seed=7)
        named = sim.rng("flow")
        for index in range(5):
            sim.rng_for("flow", index).random()
        assert self._draws(named) == expected
        assert list(sim._rngs) == ["flow"]


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_events_always_fire_in_nondecreasing_time(delays):
    sim = Simulator(seed=0)
    fired = []
    for d in delays:
        sim.schedule(d, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# -- differential oracle: the engine vs a sorted-list reference model --------

class _RefHandle:
    def __init__(self, ref, entry):
        self.ref, self.entry = ref, entry

    def cancel(self):
        if self.entry in self.ref.queue:
            self.ref.queue.remove(self.entry)


class _RefSim:
    """The engine's contract at its most literal: a list kept sorted on
    ``(time, seq)``, cancellation by eager removal.  No heap, no lazy
    deletion, no compaction, no freelist — nothing shared with the engine."""

    def __init__(self):
        self.now = 0
        self.queue = []
        self._seq = itertools.count()

    def schedule_at(self, time, fn, *args):
        assert time >= self.now
        # (time, seq) is unique, so comparisons never reach fn/args.
        entry = (time, next(self._seq), fn, args)
        bisect.insort(self.queue, entry)
        return _RefHandle(self, entry)

    def schedule(self, delay, fn, *args):
        return self.schedule_at(self.now + delay, fn, *args)

    schedule_unref = schedule

    def run(self, max_events):
        fired = 0
        while self.queue and fired < max_events:
            self.now, _, fn, args = self.queue.pop(0)
            fn(*args)
            fired += 1
        return fired


@st.composite
def programs(draw):
    """A deterministic dynamic schedule/cancel program.

    ``init`` seeds the queue; ``spawn[k]`` dictates what the k-th fired
    callback does: how many children to schedule, at what base delay, via
    which scheduling API, and whether to cancel the oldest live handle.
    Small delay scales make same-timestamp ties common.
    """
    scale = draw(st.sampled_from([1, 3, 1000]))
    init = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12))
    spawn = draw(st.lists(
        st.tuples(st.integers(0, 3),        # children per firing
                  st.integers(0, 50),       # child delay base
                  st.booleans()),           # cancel the oldest handle?
        max_size=120))
    return scale, init, spawn


def _run_program(sim, program, max_events=400):
    scale, init, spawn = program
    fired = []
    handles = []
    counter = itertools.count()

    def fire(tag):
        fired.append((sim.now, tag))
        k = next(counter)
        if k < len(spawn):
            n_children, base, do_cancel = spawn[k]
            for j in range(n_children):
                delay = (base * (j + 1)) % (60 * scale)
                mode = (k + j) % 3
                if mode == 0:
                    handles.append(sim.schedule(delay, fire, f"{tag}.{j}"))
                elif mode == 1:
                    sim.schedule_unref(delay, fire, f"{tag}.u{j}")
                else:
                    handles.append(
                        sim.schedule_at(sim.now + delay, fire, f"{tag}.a{j}"))
            if do_cancel and handles:
                handles.pop(0).cancel()

    for i, d in enumerate(init):
        handles.append(sim.schedule(d * scale, fire, f"i{i}"))
    sim.run(max_events=max_events)
    return fired


@given(programs())
@settings(max_examples=40, deadline=None, database=None)
def test_dynamic_programs_fire_identically(program):
    assert _run_program(Simulator(seed=0), program) == \
        _run_program(_RefSim(), program)


@given(programs())
@settings(max_examples=25, deadline=None, database=None)
def test_dynamic_programs_fire_identically_under_compaction(program):
    """Same oracle with compaction forced aggressively mid-run."""
    old = perf.COMPACT_MIN
    perf.COMPACT_MIN = 2
    try:
        assert _run_program(Simulator(seed=0), program) == \
            _run_program(_RefSim(), program)
    finally:
        perf.COMPACT_MIN = old


def test_same_timestamp_fifo_survives_compaction(monkeypatch):
    """Events tied on the timestamp fire in schedule order even when a
    compaction rebuilds the heap while they are pending."""
    monkeypatch.setattr(perf, "COMPACT_MIN", 2)
    sim = Simulator(seed=0)
    fired = []
    tied_at = 5_000_000
    for i in range(8):
        sim.schedule_at(tied_at, fired.append, i)
    # Cancelling more entries than remain live trips the compaction
    # threshold while the tied batch is still pending.
    decoys = [sim.schedule_at(tied_at + 1, fired.append, 100 + i)
              for i in range(10)]
    for h in decoys:
        h.cancel()
    assert sim._cancelled < 10      # a compaction really reaped entries
    sim.run()
    assert fired == list(range(8))


# -- Timer vs the cancel(); schedule() pair it replaces -------------------------

class _EagerTimer:
    """What ``transport/base.py`` did by hand before :class:`Timer`: every
    arm cancels the pending event and schedules a new one."""

    def __init__(self, sim, fn):
        self.sim, self.fn, self.event = sim, fn, None

    @property
    def armed(self):
        return self.event is not None

    def arm(self, delay):
        if self.event is not None:
            self.event.cancel()
        self.event = self.sim.schedule(delay, self._fire)

    def disarm(self):
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def _fire(self):
        self.event = None
        self.fn()


#: Few values, so deadlines and foreign events collide to the picosecond and
#: a new deadline lands before, on and after the entry already waiting.
#: ``rearm`` re-arms for the deadline last armed (the credit-meter wake's
#: common case), when that is not yet past.
_TICKS = st.sampled_from([0, 1, 5, 10, 20])

_timer_ops = st.lists(
    st.tuples(st.sampled_from(["arm"] * 4 + ["rearm"] * 3
                              + ["disarm", "foreign", "foreign"]),
              st.tuples(_TICKS, _TICKS),    # when: the sum of two ticks
              st.integers(0, 1),            # which timer
              _TICKS,                       # delay
              st.booleans()),               # applied from outside the loop?
    min_size=1, max_size=24)


def _drive_timers(timer_cls, ops, refires, mode):
    """Run ``ops`` against two ``timer_cls`` timers; return everything an
    observer could see."""
    sim = Simulator(seed=0)
    log = []
    refire = iter(refires)
    timers = []
    deadlines = [None, None]

    def fired(which):
        log.append((sim.now, sim.dispatch_key, f"t{which}"))
        delay = next(refire, None)   # like _on_rto: maybe re-arm from within
        if delay is not None:
            timers[which].arm(delay)

    timers.extend(timer_cls(sim, lambda which=which: fired(which))
                  for which in range(2))

    def apply(kind, which, delay):
        deadline = deadlines[which]
        if kind == "rearm" and deadline is not None and deadline >= sim.now:
            timers[which].arm(deadline - sim.now)
        elif kind in ("arm", "rearm"):
            deadlines[which] = sim.now + delay
            timers[which].arm(delay)
        elif kind == "disarm":
            timers[which].disarm()
        else:
            log.append((sim.now, sim.dispatch_key, "foreign",
                        tuple(t.armed for t in timers)))
            sim.schedule_unref(delay, log.append, (delay, "child"))

    between = {}
    for kind, (a, b), which, delay, external in ops:
        if external and mode == "slices":
            between.setdefault(a + b, []).append((kind, which, delay))
        else:
            sim.schedule_at(a + b, apply, kind, which, delay)
    seen = []
    if mode == "slices":
        for at in sorted({a + b for _, (a, b), _, _, _ in ops}):
            sim.run(until=at)
            for op in between.get(at, ()):
                apply(*op)
            seen.append((sim.now, sim.pending()))
    elif mode == "steps":
        while sim.run(max_events=1):
            pass
    sim.run()
    return log, seen, sim.now, sim.pending(), next(sim._seq)


@settings(deadline=None, max_examples=300)
@given(_timer_ops, st.lists(st.one_of(st.none(), _TICKS), max_size=6),
       st.sampled_from(["single", "slices", "steps"]))
def test_timer_fires_exactly_where_cancel_and_schedule_would(
        ops, refires, mode):
    assert _drive_timers(Timer, ops, refires, mode) == \
        _drive_timers(_EagerTimer, ops, refires, mode)


def test_rearming_a_timer_pushes_nothing_while_an_earlier_entry_waits(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    timer.arm(100)
    for now in (10, 20, 30):                 # three "ACKs" push the deadline
        sim.schedule_at(now, timer.arm, 100)
    assert len(sim._heap) == 4
    sim.run(until=30)
    assert len(sim._heap) == 1 and sim._cancelled == 0 and timer.armed
    assert sim.run() == 2                    # the early pop, then the fire
    assert fired == [130] and not timer.armed and sim.pending() == 0
    timer.arm(50)
    timer.arm(20)                            # earlier: the entry is replaced
    assert sim.pending() == 1 and sim._cancelled == 1
    timer.disarm()
    timer.disarm()
    assert sim.pending() == 0 and sim.run() == 0 and fired == [130]
    with pytest.raises(ValueError):
        timer.arm(-1)


def test_a_same_deadline_rearm_fires_in_place_as_its_own_key(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append((sim.now, sim.dispatch_key)))
    timer.arm(100)                           # entry (100, key 1)

    def at_40():                             # key 2
        timer.arm(60)                        # the same deadline: key 3
        sim.schedule(60, lambda: fired.append("later"))   # key 4

    sim.schedule_at(40, at_40)
    assert sim.run(until=40) == 1 and len(sim._heap) == 2
    # Nothing sorts between (100, 1) and (100, 3): the first pop fires the
    # callback as the entry at key 3 would — one event, no re-push.
    assert sim.run(max_events=1) == 1
    assert fired == [(100, 3)] and not timer.armed and sim.pending() == 1
    sim.run()
    assert fired == [(100, 3), "later"] and sim.events_processed == 3
    assert sim._cancelled == 0


def test_an_entry_between_the_keys_fires_before_a_same_deadline_rearm(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append((sim.now, sim.dispatch_key)))
    timer.arm(100)                           # entry (100, key 1)
    sim.schedule_at(100, lambda: fired.append("between"))  # key 2
    sim.schedule_at(40, timer.arm, 60)       # key 3; re-arms at 40: key 4
    sim.run()
    # The entry at key 2 is in the heap when key 1 pops: re-push, so the
    # timer fires after it, at key 4 — one extra event for the move.
    assert fired == ["between", (100, 4)]
    assert sim.events_processed == 4 and sim.pending() == 0
