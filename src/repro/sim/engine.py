"""Deterministic discrete-event scheduler.

The scheduler orders heap entries by ``(time, key)``.  The monotonically
increasing key (a sequence number) breaks ties between events scheduled for
the same picosecond, which makes runs bit-for-bit reproducible for a given
seed.  Cancellation is O(1): events carry a ``cancelled`` flag and are
skipped when popped.

The queue is a binary heap (``heapq``): O(log n), C-speed constants, and
insensitive to timestamp distribution.

Cancelled entries do not accumulate unboundedly: the simulator counts them
(which also makes :meth:`Simulator.pending` O(1)) and, past the
:mod:`repro.perf` thresholds, rebuilds the heap in place with the garbage
filtered out.  Compaction never changes pop order — the ``(time, sequence)``
key is a strict total order, so any valid heap over the same live entries
drains identically.

Two entry shapes share the heap.  ``schedule`` / ``schedule_at`` return an
:class:`Event` handle and push ``(time, key, event)``.  Hot-path callers that
never cancel what they schedule (a wire delivery, a transmit completion) use
:meth:`Simulator.schedule_unref`, which returns nothing and pushes the plain
tuple ``(time, key, None, fn, args)``: nobody can hold or cancel such an
entry, so no Event is built for it.  Keys are unique, so entry comparisons
never reach the third element.

A caller may also *reserve* a key (:attr:`Simulator.reserve_key`) and push
its event later, or never (:meth:`Simulator.push_reserved`): the entry then
pops exactly where one scheduled at reservation time would have.  To let
such a caller tell whether its reserved position has already been passed,
the run loop publishes the key of the entry it is dispatching as
:attr:`Simulator.dispatch_key` (:class:`repro.net.port.Port` defers its
transmit completions this way).

Random numbers come from *named streams* (:meth:`Simulator.rng`): each stream
is an independent ``random.Random`` seeded from ``(simulator seed, name)``, so
adding a consumer of randomness in one subsystem never perturbs another.
Stream seeds are derived through CRC32; two names that collide there would
silently share a generator, so collisions raise at stream creation instead.
"""

from __future__ import annotations

import heapq
import random
import zlib
from itertools import count
from typing import Any, Callable, Dict, List, Optional

from repro import perf
from repro._lazy import blake2b

#: ``object.__new__`` alias: builds a bare Event without running its
#: ``__init__`` (the schedule fast paths assign every slot themselves).
_new_raw = object.__new__
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Sentinel "run forever" bound — far beyond any picosecond timestamp, so
#: the run loop needs no per-event ``is None`` test.
_NO_LIMIT = 1 << 63

#: Optional callable invoked with each newly constructed :class:`Simulator`.
#: Used by :mod:`repro.perf.profile` to attach profilers ambiently; tests may
#: install their own hook.  ``None`` (the default) costs one ``is None``.
on_simulator_created: Optional[Callable[["Simulator"], None]] = None

#: How many :class:`Simulator` objects this process has constructed.  The
#: sweep scheduler reads it through ``sys.modules`` (never importing this
#: module) to tell a task that built a simulation from one that did not.
simulators_created = 0


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "fn", "args", "state", "sim")

    def __init__(self, time: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.fn = fn
        self.args = args
        #: 1 once cancelled, else 0.
        self.state = 0
        #: Owning simulator while the entry sits in its heap; cleared when
        #: the entry is popped so late cancels don't skew the garbage count.
        self.sim: Optional["Simulator"] = None

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return bool(self.state)

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if not self.state:
            self.state = 1
            sim = self.sim
            if sim is not None:
                sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.state else "pending"
        return f"<Event t={self.time} {getattr(self.fn, '__qualname__', self.fn)} {state}>"


class Timer:
    """A re-armable one-shot timer: fires ``fn()`` exactly where
    ``event.cancel(); event = sim.schedule(delay, fn)`` would, without a
    heap push (and a cancelled entry) per arm.

    :meth:`arm` takes the key ``schedule`` would, so every other event keeps
    its sequence number, notes ``(deadline, key)`` and pushes an entry only
    if none of its own waits at or before the deadline.  An entry whose
    deadline has moved on pops early (one extra event, no other trace) and
    re-pushes itself under the noted key; the entry at the deadline calls
    ``fn`` itself, so profilers see the owner's callback.  One live entry
    while armed, none otherwise: :meth:`Simulator.pending` and the clock
    after a drain do not change.
    """

    __slots__ = ("sim", "fn", "_event", "_deadline", "_key")

    def __init__(self, sim: "Simulator", fn: Callable[[], Any]):
        self.sim = sim
        self.fn = fn
        #: Our heap entry.  The run loop clears its ``.sim`` as it pops it,
        #: which is how the timer learns it has fired.
        self._event: Optional[Event] = None
        self._deadline = self._key = 0

    @property
    def armed(self) -> bool:
        """True from :meth:`arm` until the timer fires or is disarmed."""
        event = self._event
        return event is not None and event.sim is not None

    def arm(self, delay: int) -> None:
        """(Re)start the timer: fire ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        sim = self.sim
        event = self._event
        if event is not None and event.sim is not None:
            deadline = sim.now + delay
            if event.time <= deadline:
                self._deadline = deadline
                self._key = sim.reserve_key()
                event.fn = self._move
                return
            event.cancel()
        self._event = sim.schedule(delay, self.fn)

    def disarm(self) -> None:
        """Stop the timer.  Safe whether or not it is armed."""
        event = self._event
        if event is not None:
            self._event = None
            event.cancel()

    def _move(self) -> None:
        """Our entry popped ahead of a deadline set after it was pushed: put
        it back at ``(deadline, key)``, which is still ahead of the entry
        being dispatched (a later time, or the same with a newer key)."""
        event = self._event
        event.time = self._deadline
        event.fn = self.fn
        event.sim = self.sim
        _heappush(self.sim._heap, (event.time, self._key, event))


class Simulator:
    """Event loop with an integer-picosecond clock.

    Parameters
    ----------
    seed:
        Master seed.  All named RNG streams derive from it.
    """

    #: Compares above every key :attr:`reserve_key` hands out.
    _KEY_END = _NO_LIMIT

    def __init__(self, seed: int = 0):
        global simulators_created
        simulators_created += 1
        self.now: int = 0
        self.seed = seed
        self._heap: List[tuple] = []
        #: Tie-break sequence for same-picosecond events; a C-level counter
        #: is cheaper per event than ``self._seq += 1``.
        self._seq = count(1)
        #: ``reserve_key()`` takes the tie-break key (a plain sequence
        #: number) a ``schedule*`` call made now would get, without pushing
        #: anything; see :meth:`push_reserved`.  It is the counter's own
        #: ``__next__``: ports call it once per transmission, and a C call
        #: costs no Python frame.
        self.reserve_key: Callable[[], int] = self._seq.__next__
        self._rngs: Dict[str, random.Random] = {}
        self._rng_stream_seeds: Dict[int, str] = {}
        self.events_processed: int = 0
        self._flow_counter = 0
        self._port_counter = 10_000
        #: Cancelled-but-unpopped entries currently in the heap.
        self._cancelled = 0
        #: Key (``entry[1]``, an int) of the entry being dispatched;
        #: ``_KEY_END`` once a ``run()`` has fired everything due at ``now``
        #: (it drained, or stopped at ``until``), kept on a ``max_events``
        #: stop.  With ``now`` it orders a reserved position against the
        #: present.
        self.dispatch_key = self._KEY_END
        #: Optional :class:`repro.audit.NetworkAuditor`; installed by the
        #: auditor itself, consulted by the run loop and by flows.
        self.auditor = None
        #: Optional :class:`repro.perf.profile.Profiler`; when set the run
        #: loop counts and wall-clock-samples every callback.
        self.profiler = None
        #: Optional :class:`repro.obs.MetricsRegistry`; installed by
        #: ``MetricsRegistry.attach``, consulted by ``Flow.__init__``.
        self.metrics = None
        #: Optional :class:`repro.chaos.ChaosController`; installed when a
        #: fault plan is compiled onto this simulator.  Consulted by
        #: switches (blackhole accounting) and the auditor (injected-drop
        #: budgets).
        self.chaos = None
        #: Optional :class:`repro.obs.trace.Tracer` bound at construction
        #: (the ambient tracer or a worker capture buffer, if any): each
        #: ``run()`` call then emits one sim-clock ``engine.run`` span.
        #: Observation-only — the tracer never touches the heap or RNGs.
        from repro.obs.trace import emit_target as _trace_target
        self.obs_trace = _trace_target()
        hook = on_simulator_created
        if hook is not None:
            hook(self)

    def next_flow_id(self) -> int:
        """Allocate a flow id (per-simulator, so runs are reproducible)."""
        self._flow_counter += 1
        return self._flow_counter

    def next_port_number(self) -> int:
        """Allocate an ephemeral transport port number."""
        self._port_counter += 1
        return self._port_counter

    # -- randomness -------------------------------------------------------
    def rng(self, name: str) -> random.Random:
        """Return the named random stream, creating it on first use.

        Raises ``RuntimeError`` if the new name's CRC32-derived seed collides
        with an existing stream's: the two streams would silently share one
        generator, violating the independence contract.  (The seed formula
        is kept as-is — salting with the full name would reshuffle every
        stream and break trace reproducibility against older fixtures.)
        """
        stream = self._rngs.get(name)
        if stream is None:
            stream_seed = (self.seed << 32) ^ zlib.crc32(name.encode())
            clash = self._rng_stream_seeds.get(stream_seed)
            if clash is not None:
                raise RuntimeError(
                    f"RNG stream name {name!r} collides with existing stream "
                    f"{clash!r}: both hash to seed {stream_seed} "
                    f"(CRC32 collision). Rename one stream to keep them "
                    f"independent.")
            self._rng_stream_seeds[stream_seed] = name
            stream = random.Random(stream_seed)
            self._rngs[name] = stream
        return stream

    def rng_for(self, family: str, index: int) -> random.Random:
        """An independent stream for one member of a high-cardinality family.

        Per-entity randomness — per-flow jitter, per-host delay — needs one
        stream per (family, entity) pair so that adding or removing *other*
        entities never perturbs a given entity's draws: that is what keeps
        a 100k-flow run reproducible flow-by-flow.  Unlike :meth:`rng` these
        streams are neither memoised nor collision-guarded (CRC32 would
        birthday-collide around ~2^16 names); the seed mixes a 64-bit
        BLAKE2b digest of ``"family:index"``, making accidental collisions
        ~n²/2⁶⁵ and each call a fresh generator the caller owns.
        """
        tag = blake2b(f"{family}:{index}".encode(), digest_size=8).digest()
        return random.Random((self.seed << 64)
                             ^ int.from_bytes(tag, "big"))

    # -- scheduling -------------------------------------------------------
    # Event construction is inlined in each schedule variant: these run once
    # per event, and a helper call costs ~15 % of pure scheduler throughput.

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` picoseconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = _new_raw(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.state = 0
        event.sim = self
        _heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute picosecond timestamp."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self.now})")
        event = _new_raw(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.state = 0
        event.sim = self
        _heappush(self._heap, (time, next(self._seq), event))
        return event

    def schedule_unref(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling for the hot path.

        Identical semantics to :meth:`schedule` except no handle is returned,
        which guarantees nobody can cancel the event — so the entry is a
        plain tuple and no Event is built for it (wire deliveries, transmit
        completions).
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        _heappush(self._heap,
                  (self.now + delay, next(self._seq), None, fn, args))

    def push_reserved(self, time: int, key: int, fn: Callable[..., Any],
                      *args: Any) -> None:
        """Push a fire-and-forget event under a key from :attr:`reserve_key`.

        It pops exactly where an event scheduled for ``time`` at reservation
        time would have.  The caller must know ``(time, key)`` is still ahead
        of the entry being dispatched (``(now, dispatch_key)``).
        """
        if time < self.now:
            raise ValueError(f"cannot schedule into the past (t={time} < now={self.now})")
        _heappush(self._heap, (time, key, None, fn, args))

    # -- cancellation bookkeeping -----------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` while the entry is still heaped."""
        self._cancelled += 1
        threshold = perf.COMPACT_MIN
        if (threshold
                and self._cancelled >= threshold
                and self._cancelled * perf.COMPACT_RATIO
                    >= len(self._heap) - self._cancelled):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap in place with cancelled entries filtered out.

        In place (slice assignment, not rebinding) because the run loop
        holds a local reference to the heap while callbacks — which may
        cancel events — are executing.  Rebuilds never change pop order:
        the ``(time, sequence)`` key is a strict total order, so any valid
        heap over the same live entries drains identically.
        """
        heap = self._heap
        live = []
        for entry in heap:
            event = entry[2]
            if event is not None and event.state:
                event.sim = None
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled = 0

    # -- execution --------------------------------------------------------
    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the heap empties, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events processed.

        ``until`` is inclusive: events scheduled exactly at ``until`` run, and
        the clock is left at ``until`` if the simulation outlived it.
        """
        tracer = self.obs_trace
        if tracer is None:
            return self._run(until, max_events)
        import time as _time
        t0_ps = self.now
        wall0 = _time.monotonic()
        processed = self._run(until, max_events)
        tracer.span("sim", "engine.run", track="engine", clock="sim",
                    t0=t0_ps, t1=self.now,
                    args={"events": processed,
                          "wall_us": round((_time.monotonic() - wall0) * 1e6,
                                           3)})
        return processed

    def _run(self, until: Optional[int] = None,
             max_events: Optional[int] = None) -> int:
        """The untraced dispatch: profiled / inline heap loop."""
        if max_events is not None and max_events <= 0:
            return 0
        if self.profiler is not None:
            return self._run_profiled(until, max_events)
        heap = self._heap
        pop = heapq.heappop
        time_limit = _NO_LIMIT if until is None else until
        event_limit = _NO_LIMIT if max_events is None else max_events
        processed = 0
        # Pop-first loop: peeking then popping costs an extra index per
        # event, while overshooting ``until`` happens at most once per call —
        # so pop eagerly and push the overshooting entry back.
        while heap:
            entry = pop(heap)
            time = entry[0]
            if time > time_limit:
                _heappush(heap, entry)
                if until >= self.now:
                    self.now = until
                    self.dispatch_key = self._KEY_END
                break
            event = entry[2]
            if event is None:
                fn = entry[3]
                args = entry[4]
            else:
                event.sim = None
                if event.state:
                    self._cancelled -= 1
                    continue
                fn = event.fn
                args = event.args
            self.now = time
            self.dispatch_key = entry[1]
            if self.auditor is not None:
                self.auditor.on_event(time)
            fn(*args)
            processed += 1
            if processed >= event_limit:
                break
        else:
            self.dispatch_key = self._KEY_END
            if until is not None and until > self.now:
                self.now = until
        self.events_processed += processed
        return processed

    def _run_profiled(self, until: Optional[int], max_events: Optional[int]) -> int:
        """The run loop with per-callback counting and sampled timing.

        Kept separate so profiling costs nothing when off.  The simulation
        itself is bit-identical either way: the profiler only observes.
        """
        profiler = self.profiler
        heap = self._heap
        pop = heapq.heappop
        time_limit = _NO_LIMIT if until is None else until
        event_limit = _NO_LIMIT if max_events is None else max_events
        processed = 0
        while heap:
            entry = pop(heap)
            time = entry[0]
            if time > time_limit:
                _heappush(heap, entry)
                if until >= self.now:
                    self.now = until
                    self.dispatch_key = self._KEY_END
                break
            event = entry[2]
            if event is None:
                fn = entry[3]
                args = entry[4]
            else:
                event.sim = None
                if event.state:
                    self._cancelled -= 1
                    profiler.on_cancelled_reaped()
                    continue
                fn = event.fn
                args = event.args
            self.now = time
            self.dispatch_key = entry[1]
            if self.auditor is not None:
                self.auditor.on_event(time)
            profiler.fire(fn, args)
            processed += 1
            if processed >= event_limit:
                break
        else:
            self.dispatch_key = self._KEY_END
            if until is not None and until > self.now:
                self.now = until
        self.events_processed += processed
        return processed

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event is None or not event.state:
                return heap[0][0]
            _heappop(heap)
            event.sim = None
            self._cancelled -= 1
        return None

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return len(self._heap) - self._cancelled
