"""Deferred transmit completions and cut-through against an eager oracle.

A :class:`~repro.net.port.Port` whose queues are empty when it starts
transmitting does not schedule its ``_tx_done``: it reserves the event's
tie-break key and pushes it only if a packet arrives before that position
passes.  And a packet that finds the line free and nothing waiting is not
queued at all: ``send`` accounts for the visit and puts it on the wire.
And the transmitter runs only when it can send: ``send`` and ``_tx_done``
arm the credit-meter wake themselves, and the wake is a
:class:`~repro.sim.engine.Timer` that a same-deadline re-arm moves in
place.  The claim is *exactness* — every surviving event pops where it
always did, every statistic and RNG draw is the queued path's — so the
reference implementation lives here, not in ``src/``: :class:`EagerPort`
queues every packet, schedules every completion and sleeps on the meter
with a ``cancel(); schedule()`` pair, as the port did before any of it (it
overrides the whole send → transmit → wake path, so nothing the real port
learns to skip can leak into it), and the tests drive identical traffic
through both and require identical transmit sequences, statistics and RNG
state, with every difference in event counts accounted for.
"""

import functools
from collections import Counter
from contextlib import contextmanager
from itertools import count

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.net.link
from repro.net.classes import install_credit_classes
from repro.net.node import Node
from repro import perf
from repro.net.packet import credit_packet, data_packet
from repro.net.pfc import install_pfc
from repro.net.port import Port, PortStats
from repro.net.queues import TokenBucket, _QueueStats
from repro.perf import profile
from repro.sim.engine import Simulator, Timer
from repro.sim.units import GBPS, US, tx_time_ps
from tests.test_golden_traces import SCENARIOS, build_payload

RATE = 10 * GBPS
DATA_TX = tx_time_ps(1538, RATE)
CREDIT_TX = tx_time_ps(84, RATE)
#: A port's credit meter and its refill times from empty: a ``tokens=0``
#: port that meets an 84 B / 92 B credit at 0 wakes at exactly one of these.
_METER = Port(Simulator(), None, None, RATE, 0, 1).credit_bucket
CREDIT_RATE = _METER.rate_bps
REFILL_84, REFILL_92 = (
    TokenBucket(CREDIT_RATE, _METER.burst_bytes, start_full=False)
    .time_until(wire, 0) for wire in (84, 92))


class EagerPort(Port):
    """The oracle: every packet is queued, then dequeued by ``_try_send``;
    every transmission schedules its completion event, every completion
    calls ``_try_send``, and the credit-meter wake is a plain
    ``cancel(); schedule()`` pair on its own slot.  Only ``_send_checked``
    (the attachment path, which ends in the oracle's ``_try_send``) is
    inherited."""

    __slots__ = ("_wake_event",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wake_event = None

    def send(self, pkt):
        if self._flags:
            return self._send_checked(pkt)
        now = self.sim.now
        if pkt.is_credit:
            ok = self.credit_queue.enqueue(pkt, now)
            if not ok and pkt.flow is not None:
                pkt.flow.on_credit_dropped(pkt, self)
        elif pkt.low_priority:
            return self._send_checked(pkt)
        else:
            ok = self.data_queue.enqueue(pkt, now)
            if not ok and pkt.flow is not None:
                pkt.flow.on_data_dropped(pkt, self)
        if ok:
            self._try_send()
        return ok

    def _try_send(self):
        if self._busy:
            return  # the completion is in the heap and will call back
        if self._flags:
            return self._try_send_checked()
        now = self.sim.now
        head = self.credit_queue.head()
        if head is not None and self.credit_bucket.try_consume(
                head.wire_bytes, now):
            self._transmit(self.credit_queue.dequeue(now))
            return
        pkt = self.data_queue.dequeue(now)
        if pkt is not None:
            self._transmit(pkt)
            return
        if head is not None:
            self._sleep(head, now)

    def _try_send_checked(self):
        now = self.sim.now
        head = self.credit_queue.head()
        if head is not None and self.credit_bucket.try_consume(
                head.wire_bytes, now):
            self._transmit(self.credit_queue.dequeue(now))
            return
        if not self._pfc_paused:
            pkt = self.data_queue.dequeue(now)
            if pkt is not None:
                if self._pfc is not None:
                    self._pfc.on_queue_change(self)
                self._transmit(pkt)
                return
        if self._lowprio_queue is not None and not self._pfc_paused:
            pkt = self._lowprio_queue.dequeue(now)
            if pkt is not None:
                self._transmit(pkt)
                return
        if head is not None:
            self._sleep(head, now)

    def _sleep(self, head, now):
        obs = self._obs
        if obs is not None:
            obs.credit_throttled += 1
        wait = self.credit_bucket.time_until(head.wire_bytes, now)
        if self._wake_event is not None:
            self._wake_event.cancel()
        self._wake_event = self.sim.schedule(max(wait, 1), self._wake)

    def _wake(self):
        self._wake_event = None
        self._try_send()

    def _tx_done(self):
        self._busy = False
        self._try_send()

    def _transmit(self, pkt):
        if self._on_transmit is not None:
            self._on_transmit(pkt)
        self._busy = True
        self._tx_key = None  # never deferred: _try_send just sees "busy"
        if self._wake_event is not None:
            self._wake_event.cancel()
            self._wake_event = None
        wire = pkt.wire_bytes
        tx = tx_time_ps(wire, self.rate_bps)
        stats = self.stats
        if pkt.is_credit:
            stats.credit_bytes_sent += wire
            stats.credit_pkts_sent += 1
        else:
            stats.data_bytes_sent += wire
            stats.data_pkts_sent += 1
        stats.busy_ps += tx
        self.sim.schedule_unref(tx, self._tx_done)
        self.sim.schedule_unref(tx + self.prop_delay_ps, self.peer.receive,
                                pkt, self)


# --- a small fabric built to collide ------------------------------------------

class Relay(Node):
    """Forwards around a ring; answers most credits with a data packet.

    All relays draw from one named RNG stream and label replies from one
    counter, so any change in event order shows up in the logs.
    """

    def __init__(self, fabric, node_id):
        super().__init__(fabric.sim, node_id, f"r{node_id}")
        self.fabric = fabric
        self.rng = fabric.sim.rng("relay")

    def receive(self, pkt, from_port):
        fabric = self.fabric
        fabric.log.setdefault(from_port.name, []).append(
            (self.sim.now, pkt.seq, pkt.ecn_marked))
        if pkt.dst != self.id:
            self.forward(pkt)
        elif pkt.is_credit and self.rng.random() < 0.75:
            self.forward(fabric.data(self.id, pkt.src))

    def forward(self, pkt):
        n = len(self.fabric.nodes)
        step = 1 if (pkt.dst - self.id) % n <= n // 2 else -1
        self.ports[(self.id + step) % n].send(pkt)


class RcpStamp:
    """Stands in for an RCP controller (the one attachment a cut-through
    port may carry): logs each arrival it is shown."""

    def __init__(self, fabric, port):
        # Not in ``fabric.log``: ``drive`` counts that as deliveries.
        self.seen = fabric.stamped.setdefault(port.name, [])

    def on_arrival(self, pkt, now_ps):
        self.seen.append((now_ps, pkt.seq))


#: Marking set-ups chosen around one packet's wire size (1538 B), because a
#: pass-through is marked against an occupancy of the packet alone.
MARKING = {
    "ecn-low": dict(ecn=1000),             # marks even a lone packet
    "ecn-high": dict(ecn=2 * 1538),        # marks only behind a backlog
    "red-draw": dict(red=(500, 3 * 1538)),   # a lone packet draws the RNG
    "red-all": dict(red=(500, 1538)),      # a lone packet is at kmax: no draw
    "red-high": dict(red=(1538, 4 * 1538)),  # a lone packet is not above kmin
}


class Fabric:
    """``n`` relays in a ring, equal link rates, ``port_cls`` egress ports."""

    def __init__(self, port_cls, n, prop_delay_ps, classified, hooked, pfc,
                 rcp=False, marking=None, tight_port=None, tokens=None):
        self.sim = Simulator(seed=7)
        self.log = {}
        self.stamped = {}
        self.labels = count()
        self.nodes = [Relay(self, i) for i in range(n)]
        self.ports = []
        mark = MARKING.get(marking, {})
        for a, b in sorted({tuple(sorted((i, (i + 1) % n)))
                            for i in range(n)}):
            for src, dst in ((a, b), (b, a)):
                # ``tight_port`` cannot hold one data packet: the drop path.
                tight = len(self.ports) == tight_port
                port = port_cls(self.sim, self.nodes[src], self.nodes[dst],
                                RATE, prop_delay_ps,
                                data_capacity_bytes=1000 if tight else 4 * 1538,
                                credit_capacity_pkts=4,
                                ecn_threshold_bytes=mark.get("ecn"))
                if "red" in mark:
                    port.data_queue.set_red_marking(*mark["red"], 0.5,
                                                    self.sim.rng("red"))
                if tokens is not None:  # a short or exactly sufficient bucket
                    port.credit_bucket.tokens = tokens
                self.nodes[src].attach_port(port)
                self.ports.append(port)
        if classified:
            install_credit_classes(self.ports[0], {0: 1, 1: 1},
                                   capacity_pkts=4)
        if rcp:  # even ports: the flags word is nonzero, cut-through stays
            for port in self.ports[0::2]:
                port.rcp_controller = RcpStamp(self, port)
        if hooked:  # odd ports leave the flags-zero fast path
            for port in self.ports[1::2]:
                port.on_transmit = lambda pkt: None
        if pfc:
            install_pfc(self.sim, self.ports,
                        xoff_bytes=2 * 1538, xon_bytes=1538)

    def data(self, src, dst):
        label = next(self.labels)
        return data_packet(src, dst, None, 1500, seq=label,
                           ecn_capable=bool(label % 3))

    # -- the traffic script ---------------------------------------------------
    def apply(self, action):
        kind, _, a, b, extra = action
        n = len(self.nodes)
        port = self.ports[a % len(self.ports)]
        if kind in ("data", "lowprio", "credits"):
            src, dst = a % n, b % n
            if src == dst:
                dst = (dst + 1) % n
            for _ in range(extra if kind != "lowprio" else 1):
                if kind == "credits":
                    label = next(self.labels)
                    pkt = credit_packet(src, dst, None, label,
                                        wire_bytes=84 if label % 2 else 92)
                    pkt.seq = label
                else:
                    pkt = self.data(src, dst)
                    pkt.low_priority = kind == "lowprio"
                self.nodes[src].forward(pkt)
        elif kind == "rate":  # a chaos meter misconfiguration: ×½ … ×3
            port.credit_bucket.set_rate(CREDIT_RATE * extra // 2, self.sim.now)
        elif kind == "down":
            port.up = False
        elif kind == "up":
            port.up = True
        else:
            port.set_pfc_paused(kind == "pause")

    def drive(self, actions, mode):
        """Run the script to quiescence, sliced by ``mode``.

        Each action is scheduled up front (``script``), applied from
        outside the loop (``between``), or scheduled from the last event at
        time 0 (``late``): keyed above every wake the time-0 actions armed,
        so an arrival can meet a wake's deadline from either side.

        ``single``: one ``run()``.  ``windows``: ``run(until=…)`` at every
        instant a transmission started by the script could end — landing
        exactly on ``free_at`` values — with the ``between`` actions applied
        *between* runs.  ``steps``: ``run(max_events=1)``, with each
        ``between`` action applied from outside the loop right after the
        step that delivered the fabric's k-th packet (deliveries are never
        elided, so that is the same point of both runs).  In ``single``
        mode ``between`` actions are scheduled up front.
        """
        sim = self.sim
        between = {}
        late = []
        for action in actions:
            at, how = action[1]
            if how == "between" and mode == "windows":
                between.setdefault(at, []).append(action)
            elif how == "between" and mode == "steps":
                between.setdefault(action[2] + action[3], []).append(action)
            elif how == "late":
                late.append(action)
            else:
                sim.schedule_at(at, self.apply, action)
        if late:
            sim.schedule_at(0, lambda: [
                sim.schedule_at(action[1][0], self.apply, action)
                for action in late])
        if mode == "windows":
            starts = {action[1][0] for action in actions}
            for at in sorted(starts | {t + DATA_TX for t in starts}
                             | {t + CREDIT_TX for t in starts}):
                sim.run(until=at)
                for action in between.pop(at, ()):
                    self.apply(action)
        elif mode == "steps":
            while sim.run(max_events=1):
                delivered = sum(map(len, self.log.values()))
                for action in between.pop(delivered, ()):
                    self.apply(action)
            for _, late in sorted(between.items()):
                for action in late:
                    self.apply(action)
        sim.run()

    def snapshot(self):
        def stats_of(queue):
            if queue is None:
                return None
            queues = getattr(queue, "queues", None)
            if queues is not None:  # ClassifiedCreditQueues
                return {cls: stats_of(q) for cls, q in queues.items()}
            return ({f: getattr(queue.stats, f)
                     for f in _QueueStats.__slots__}, len(queue),
                    queue.stats.average_bytes(self.sim.now))

        return {
            "now": self.sim.now,
            "labels": next(self.labels),
            "log": self.log,
            "stamped": self.stamped,
            "ports": {
                port.name: (
                    {f: getattr(port.stats, f) for f in PortStats.__slots__},
                    stats_of(port.data_queue), stats_of(port.credit_queue),
                    stats_of(port.lowprio_queue), port.pfc_paused)
                for port in self.ports},
            "rng": {name: rng.random()
                    for name, rng in sorted(self.sim._rngs.items())},
        }

    def transmissions(self):
        return sum(p.stats.data_pkts_sent + p.stats.credit_pkts_sent
                   for p in self.ports)


def _completions_fired(report):
    return sum(n for (_, qual), (n, _, _) in report.counts.items()
               if qual.endswith("._tx_done"))


@contextmanager
def counting():
    """Count what the event accounting needs while active: transmit
    completions the real port fired, ``Timer`` entries re-pushed (the one
    event a re-arm may add) and entries cancelled while heaped — with
    compaction off, exactly what the run loop reaps."""
    counts = Counter()
    tx_done, move, note = Port._tx_done, Timer._move, Simulator._note_cancelled

    @functools.wraps(tx_done)   # the profiler keys callbacks by qualname
    def counted_tx_done(self):
        counts["completions"] += 1
        tx_done(self)

    @functools.wraps(move)
    def counted_move(self):
        popped = self._event
        move(self)
        # A fire in place leaves the popped entry off the heap.
        counts["repushed"] += popped.sim is not None

    def counted_note(self):
        counts["reaped"] += 1
        note(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Port, "_tx_done", counted_tx_done)
        patch.setattr(Timer, "_move", counted_move)
        patch.setattr(Simulator, "_note_cancelled", counted_note)
        patch.setattr(perf, "COMPACT_MIN", 0)
        yield counts


#: Few instants, built from the two serialization delays and the meter's
#: two refill times, so arrivals, completions, wakes and window edges
#: coincide to the picosecond.
instants = st.builds(lambda a, b, c: a * DATA_TX + b * CREDIT_TX + c,
                     st.integers(0, 2), st.integers(0, 1),
                     st.sampled_from([0, 0, REFILL_84, REFILL_92]))

actions = st.lists(
    st.tuples(
        st.sampled_from(["data"] * 4 + ["credits"] * 5
                        + ["lowprio", "down", "up", "pause", "resume",
                           "rate"]),
        st.tuples(instants, st.sampled_from(["script", "script", "between",
                                             "late"])),
        # ``extra``: packets per action, up to a burst that overflows the
        # meter's two credits and the credit queue's four.
        st.integers(0, 5), st.integers(0, 5), st.integers(1, 6)),
    min_size=2, max_size=16)

fabrics = st.fixed_dictionaries({
    "n": st.integers(2, 3),
    "prop_delay_ps": st.sampled_from([0, 0, CREDIT_TX, DATA_TX, 1 * US]),
    "classified": st.booleans(),
    "hooked": st.booleans(),
    "pfc": st.booleans(),
    "rcp": st.booleans(),
    "marking": st.sampled_from([None, *MARKING]),
    "tight_port": st.sampled_from([None, None, 0, 1]),
    # 184 is the full burst; 84 / 92 cover exactly one credit, 83 falls one
    # byte short of any, 0 makes every first credit wait for the meter.
    "tokens": st.sampled_from([None, None, 0, 83, 84, 92]),
})


@settings(deadline=None, max_examples=500,
          suppress_health_check=[HealthCheck.too_slow])
@given(fabrics, actions, st.sampled_from(["single", "windows", "steps"]),
       st.booleans())
def test_lazy_ports_are_indistinguishable_from_eager_ones(
        fabric_kw, script, mode, profiled):
    with counting() as eager_counts:
        eager = Fabric(EagerPort, **fabric_kw)
        eager.drive(script, mode)
    with counting() as counts:
        if profiled:  # also exercises the profiled run loop
            with profile.profiled() as session:
                lazy = Fabric(Port, **fabric_kw)
                lazy.drive(script, mode)
        else:
            lazy = Fabric(Port, **fabric_kw)
            lazy.drive(script, mode)

    assert lazy.snapshot() == eager.snapshot()
    assert eager.sim.pending() == lazy.sim.pending() == 0
    # Drained, so the eager side fired one completion per transmission.
    # The lazy side fired fewer (the elided ones) and one more event per
    # Timer re-push; a same-deadline re-arm that fires in place costs what
    # the eager cancelled-and-rescheduled wake did.  Nothing else differs.
    elided = lazy.transmissions() - counts["completions"]
    assert (eager.sim.events_processed - lazy.sim.events_processed
            == elided - counts["repushed"])
    # A re-arm that keeps its entry leaves no cancelled one behind.
    assert counts["reaped"] <= eager_counts["reaped"]
    assert eager_counts["completions"] == eager_counts["repushed"] == 0
    if profiled:
        assert _completions_fired(session.report) == counts["completions"]
        if lazy.transmissions():  # and the report derives the same number
            assert (f"elided: {elided:,} of {lazy.transmissions():,} "
                    in session.report.format())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_scenarios_match_the_eager_oracle(name, monkeypatch):
    lazy_payload = build_payload(name)
    lazy_sim = next(iter(SCENARIOS[name]().values())).port.sim
    monkeypatch.setattr(repro.net.link, "Port", EagerPort)
    assert build_payload(name) == lazy_payload
    eager_sim = next(iter(SCENARIOS[name]().values())).port.sim
    assert eager_sim.now == lazy_sim.now
    assert lazy_sim.events_processed < eager_sim.events_processed


# --- the tie, case by case -----------------------------------------------------

class Sink(Node):
    def __init__(self, sim, node_id):
        super().__init__(sim, node_id)
        self.arrivals = []

    def receive(self, pkt, from_port):
        self.arrivals.append((self.sim.now, pkt.seq))


def _wire(port_cls, prop_delay_ps=1 * US):
    sim = Simulator(seed=0)
    sink = Sink(sim, 1)
    port = port_cls(sim, Sink(sim, 0), sink, RATE, prop_delay_ps,
                    data_capacity_bytes=100_000)
    return sim, port, sink


def _data(seq):
    return data_packet(0, 1, None, 1500, seq=seq)


BACK_TO_BACK = [(DATA_TX + 1 * US, 0), (2 * DATA_TX + 1 * US, 1)]


@pytest.mark.parametrize("port_cls", [Port, EagerPort])
def test_arrival_at_free_at_with_a_lower_key_enqueues_then_completes(port_cls):
    sim, port, sink = _wire(port_cls)
    sim.schedule_at(DATA_TX, port.send, _data(1))  # key 1
    port.send(_data(0))          # completion position: (DATA_TX, key 2)
    assert sim.run(max_events=1) == 1              # the arrival, at free_at
    # Its key precedes the completion's, so the line is still busy.
    assert sim.now == DATA_TX
    assert len(port.data_queue) == 1 and port.stats.data_pkts_sent == 1
    assert sim.run(max_events=1) == 1              # the completion itself
    assert len(port.data_queue) == 0 and port.stats.data_pkts_sent == 2
    sim.run()
    assert sink.arrivals == BACK_TO_BACK
    assert sim.events_processed == (5 if port_cls is EagerPort else 4)


@pytest.mark.parametrize("port_cls", [Port, EagerPort])
def test_arrival_at_free_at_with_a_higher_key_transmits_in_place(port_cls):
    sim, port, sink = _wire(port_cls)
    port.send(_data(0))          # completion position: (DATA_TX, key 1)
    sim.schedule_at(DATA_TX, port.send, _data(1))  # key 3
    sim.run(until=DATA_TX)
    # The completion's position has passed: the arrival found a free line.
    assert len(port.data_queue) == 0 and port.stats.data_pkts_sent == 2
    assert port.data_queue.stats.max_pkts == 1
    sim.run()
    assert sink.arrivals == BACK_TO_BACK
    assert sim.events_processed == (5 if port_cls is EagerPort else 3)


@pytest.mark.parametrize("port_cls", [Port, EagerPort])
def test_arrival_between_runs_at_until_equal_free_at_transmits_in_place(
        port_cls):
    sim, port, sink = _wire(port_cls)
    sim.schedule_at(DATA_TX // 2, lambda: None)    # key 1: last dispatched
    port.send(_data(0))          # completion position: (DATA_TX, key 2)
    sim.run(until=DATA_TX)       # everything due at DATA_TX has fired
    port.send(_data(1))
    assert len(port.data_queue) == 0 and port.stats.data_pkts_sent == 2
    sim.run()
    assert sink.arrivals == BACK_TO_BACK


@pytest.mark.parametrize("port_cls", [Port, EagerPort])
def test_max_events_stop_keeps_the_dispatch_position(port_cls):
    sim, port, sink = _wire(port_cls)
    sim.schedule_at(DATA_TX, lambda: None)         # key 1
    port.send(_data(0))          # completion position: (DATA_TX, key 2)
    assert sim.run(max_events=1) == 1 and sim.now == DATA_TX
    # Stopped mid-instant, *before* the completion's position: an arrival
    # from outside the loop must still queue behind it.
    port.send(_data(1))
    assert len(port.data_queue) == 1 and port.stats.data_pkts_sent == 1
    sim.run()
    assert sink.arrivals == BACK_TO_BACK


@pytest.mark.parametrize("port_cls", [Port, EagerPort])
def test_completion_precedes_its_own_delivery_on_a_zero_delay_wire(port_cls):
    """Keys are taken in transmit order — the completion's, then the
    delivery's — on the cut-through path too: with no propagation delay
    both fall on one instant, and the next packet must already be on the
    wire when the first one lands."""
    sim, port, sink = _wire(port_cls, prop_delay_ps=0)
    sent_on_arrival = []
    sink.receive = lambda pkt, from_port: sent_on_arrival.append(
        (pkt.seq, port.stats.data_pkts_sent))
    sim.schedule_at(DATA_TX, port.send, _data(1))  # key 1: queues behind 0
    port.send(_data(0))  # completion (DATA_TX, key 2), delivery (DATA_TX, 3)
    sim.run()
    assert sent_on_arrival == [(0, 2), (1, 2)]


def test_classified_credit_queue_on_a_port_that_defers_completions():
    """The eager/lazy decision asks the queue protocol, not ``_q``
    (ClassifiedCreditQueues has none)."""
    sim, port, sink = _wire(Port)
    classified = install_credit_classes(port, {0: 3, 1: 1})
    assert not hasattr(classified, "_q")
    for seq in range(3):         # the third waits for tokens: burst is 2
        pkt = credit_packet(0, 1, None, seq)
        pkt.seq = seq
        port.send(pkt)
    # First credit found the others not yet queued: deferred.  The second
    # arrival materialised that completion and waited behind it.
    assert port.stats.credit_pkts_sent == 1 and len(classified) == 2
    sim.run()
    assert [seq for _, seq in sink.arrivals] == [0, 1, 2]
    assert sink.arrivals[1][0] - sink.arrivals[0][0] == CREDIT_TX
    port.send(_data(3))          # long after: the last completion was elided
    assert port.stats.data_pkts_sent == 1 and len(port.data_queue) == 0


# --- the throttled transmitter, case by case -------------------------------------

def _credit(seq, wire=84):
    pkt = credit_packet(0, 1, None, seq, wire_bytes=wire)
    pkt.seq = seq
    return pkt


#: Scripts against a port whose meter is empty at 0, where credit 0 arrives
#: first and sleeps until ``REFILL_84``.  Each op is ``(time, what)``, applied
#: in order: ``None`` now, else scheduled then, so list order is key order.
THROTTLED = {
    # Credits queue behind the dry meter: the same deadline each time.
    "burst": ([(None, 0), (10, 1), (20, 2), (20, 3)], 0),
    # Arrivals at exactly the wake deadline, keyed below and above the wake.
    "lower-key": ([(REFILL_84, 1), (None, 0)], 0),
    "higher-key": ([(None, 0), (REFILL_84, 1), (REFILL_84, "data")], 0),
    # Keyed between the wake's entry and a same-deadline re-arm: re-push.
    "between-keys": ([(None, 0), (REFILL_84, "data"), (10, 1)], 1),
    "data-mid-throttle": ([(None, 0), (10, 1), (20, "data")], 0),
    # A misconfigured meter mid-throttle, then a credit re-arms the wake
    # later (the entry moves) or earlier (it is replaced).
    "slower-meter": ([(None, 0), (10, "slow"), (20, 1)], 1),
    "faster-meter": ([(None, 0), (10, "fast"), (20, 1)], 0),
}


def _run_throttled(port_cls, ops):
    with counting() as counts:
        sim, port, sink = _wire(port_cls)
        port.credit_bucket.tokens = 0

        def apply(what):
            if what == "data":
                port.send(_data(100))
            elif what in ("slow", "fast"):
                port.credit_bucket.set_rate(
                    CREDIT_RATE // 2 if what == "slow" else 2 * CREDIT_RATE,
                    sim.now)
            else:
                port.send(_credit(what))

        for at, what in ops:
            if at is None:
                apply(what)
            else:
                sim.schedule_at(at, apply, what)
        sim.run()
    seen = (sink.arrivals, sim.now,
            {f: getattr(port.stats, f) for f in PortStats.__slots__})
    return seen, sim.events_processed, counts, port.stats


@pytest.mark.parametrize("name", sorted(THROTTLED))
def test_throttled_port_matches_the_eager_oracle(name):
    ops, repushed = THROTTLED[name]
    seen, events, counts, stats = _run_throttled(Port, ops)
    eager_seen, eager_events, eager_counts, _ = _run_throttled(EagerPort, ops)
    assert seen == eager_seen
    assert len(seen[0]) == sum(what not in ("slow", "fast") for _, what in ops)
    assert counts["repushed"] == repushed
    elided = stats.data_pkts_sent + stats.credit_pkts_sent \
        - counts["completions"]
    assert eager_events - events == elided - repushed
    assert counts["reaped"] <= eager_counts["reaped"]


def test_credits_queueing_behind_a_dry_meter_keep_one_wake_entry():
    sim, port, sink = _wire(Port)
    port.credit_bucket.tokens = 0
    port.send(_credit(0))        # the meter is dry: sleep until REFILL_84
    for seq, at in ((1, 10), (2, 20)):
        sim.schedule_at(at, port.send, _credit(seq))
    sim.run(until=20)
    # Each credit re-armed the wake for the same deadline: one entry, no
    # cancelled ones, and the transmitter never ran.
    assert port.credit_queue.head().seq == 0 and len(port.credit_queue) == 3
    assert len(sim._heap) == sim.pending() == 1 and sim._cancelled == 0
    assert sim.run(max_events=1) == 1 and sim.now == REFILL_84
    assert port.stats.credit_pkts_sent == 1    # fired in place
