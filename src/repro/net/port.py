"""Egress port: one direction of a full-duplex link.

A :class:`Port` belongs to a node and transmits toward a single peer.  It
owns the egress queues (data + credit), the credit token bucket, and the
transmitter state machine.  Scheduling policy (ExpressPass §3.1):

* credit packets are drained through a token bucket filled at
  84/1622 ≈ 5.18 % of link rate with a burst of 2 credit packets —
  "maximum bandwidth metering" in Broadcom terms;
* when the line goes idle, a credit is sent if the bucket allows it,
  otherwise the head data packet; if only credits wait but tokens are short,
  the transmitter sleeps exactly until the bucket refills.

The transmitter (``_try_send``) runs only when it can send.  ``send`` does
not call it for a packet that queues behind a transmission whose
completion will call back, and it materialises a deferred completion
itself.  ``send`` and ``_tx_done`` compute the meter's wait themselves when
only credits wait on a free line: a throttled port that meets another
credit re-arms its wake, a :class:`~repro.sim.engine.Timer`, almost always
for the same deadline, and that re-arm costs one reserved key.  The
timer's entry then fires the transmitter in place at that key.

Optional per-port attachments (``phantom``, ``rcp_controller``, ``pfc``,
hooks, fault filters) let HULL, RCP, PFC, tracing, and fault injection reuse
the same port without burdening the common path: attachments are exposed as
properties that maintain a precomputed flags word, and while the word is
zero the transmitter takes a fast path that skips every attachment check
(:mod:`repro.perf`).  The fast and checked paths are behaviour-identical —
golden traces do not move when a no-op hook forces the checked path.

"The line goes idle" is usually not an event.  A transmission that starts
with every queue empty does not schedule its completion: the port reserves
the completion's tie-break key, notes when the line frees (``_free_at``),
and ``_line_free`` — which settles a ``_busy`` that is only on paper —
decides on the next arrival whether that position has already passed (the
line is free) or is still ahead of the entry being dispatched (the
completion is then pushed under the reserved key, popping exactly where an
eagerly scheduled one would).

Nor is a packet that finds the line free and nothing waiting queued:
``_try_send`` would dequeue that very packet before ``send`` returns, so
unless something observes the queue in between (any attachment but an RCP
controller, or classified credit queues) ``send`` *cuts through* — one
``pass_through`` call leaves the queue's statistics, marks and RNG as
enqueue-then-dequeue would, and the packet goes on the wire.
Credit-scheduled data arrives paced at an idle port, so most hops cut
through and most completions are never pushed; transmit sequences,
statistics and RNG draws are bit-identical to queueing every packet,
scheduling every completion and sleeping on the meter with a
``cancel(); schedule()`` pair (``tests/test_lazy_completion.py`` keeps that
eager port as the oracle).
"""

from __future__ import annotations

from heapq import heappush
from typing import Optional

from repro.net.packet import (
    CREDIT_RATE_FRACTION_DEN,
    CREDIT_RATE_FRACTION_NUM,
    CREDIT_WIRE_MAX,
    Packet,
)
from repro.net.queues import CreditQueue, DataQueue, PhantomQueue, TokenBucket
from repro.sim.engine import Simulator, Timer
from repro.sim.units import tx_time_ps

# Flags-word bits: any nonzero bit routes send/_try_send to the fully
# checked slow path.  Kept private; tests introspect ``port._flags``.
_F_DOWN = 1 << 0
_F_DROP_FILTER = 1 << 1
_F_PHANTOM = 1 << 2
_F_RCP = 1 << 3
_F_PFC = 1 << 4
_F_PAUSED = 1 << 5
_F_ON_TRANSMIT = 1 << 6
_F_ON_ENQUEUE = 1 << 7
_F_LOWPRIO = 1 << 8
#: Every bit but RCP's: something observes the queue between a packet's
#: enqueue and its dequeue, so ``send`` may not cut through.
_F_OBSERVED = ~_F_RCP


class PortStats:
    """Egress counters for utilization and loss reporting."""

    __slots__ = ("data_bytes_sent", "credit_bytes_sent", "data_pkts_sent",
                 "credit_pkts_sent", "busy_ps")

    def __init__(self):
        self.data_bytes_sent = 0
        self.credit_bytes_sent = 0
        self.data_pkts_sent = 0
        self.credit_pkts_sent = 0
        self.busy_ps = 0


class Port:
    """One egress direction of a link; see module docstring."""

    __slots__ = (
        "sim", "node", "peer", "rate_bps", "prop_delay_ps",
        "data_queue", "credit_queue", "credit_bucket",
        "_lowprio_queue",
        "_phantom", "_rcp_controller", "_on_transmit", "_on_enqueue",
        "_pfc", "_pfc_paused", "_up", "_drop_filter", "_drop_filters", "_obs",
        "stats", "_busy", "_free_at", "_tx_key", "_waker", "_flags",
        "_tx_cache",
    )

    def __init__(
        self,
        sim: Simulator,
        node,
        peer,
        rate_bps: int,
        prop_delay_ps: int,
        data_capacity_bytes: int,
        credit_capacity_pkts: int = 8,
        ecn_threshold_bytes: Optional[int] = None,
    ):
        self.sim = sim
        self.node = node
        self.peer = peer
        self.rate_bps = rate_bps
        self.prop_delay_ps = prop_delay_ps
        # Queues and the credit meter observe time from the port's birth, so
        # ports added mid-simulation keep exact occupancy/rate accounting.
        born = sim.now
        self.data_queue = DataQueue(data_capacity_bytes, ecn_threshold_bytes,
                                    birth_ps=born)
        self.credit_queue = CreditQueue(credit_capacity_pkts, birth_ps=born)
        credit_rate = rate_bps * CREDIT_RATE_FRACTION_NUM // CREDIT_RATE_FRACTION_DEN
        self.credit_bucket = TokenBucket(credit_rate,
                                         burst_bytes=2 * CREDIT_WIRE_MAX,
                                         now_ps=born)
        # Low-priority queue for opportunistic (uncredited) data, created on
        # first use (§7 / RC3-style extension).  Strictly below normal data.
        self._lowprio_queue: Optional[DataQueue] = None
        self._phantom: Optional[PhantomQueue] = None
        self._rcp_controller = None
        self._on_transmit = None
        self._on_enqueue = None
        self._pfc = None
        self._pfc_paused = False
        self._up = True
        self._drop_filter = None
        self._drop_filters: list = []
        self._obs = None
        self.stats = PortStats()
        #: True from a transmission's start until its completion is known to
        #: have passed.  While ``_tx_key`` is not None that completion is
        #: *deferred*: not in the heap, only its position ``(_free_at,
        #: _tx_key)`` is held (see :meth:`_line_free`).
        self._busy = False
        self._free_at = 0
        self._tx_key = None
        #: Wakes the transmitter when the credit meter can pay for the head
        #: credit.  A :class:`Timer`: a credit that queues behind a dry meter
        #: re-arms it for the same deadline, which costs one reserved key.
        self._waker = Timer(sim, self._try_send)
        #: Per-size serialization-delay memo (the port's rate is fixed).
        self._tx_cache = {}
        self._flags = 0
        self._refresh_flags()

    # -- attachments ---------------------------------------------------------
    # Each optional attachment is a property over a slot so assignment (the
    # public idiom: ``port.phantom = PhantomQueue(...)``) keeps the flags
    # word in sync.  The hot path reads the underscore slots directly.

    def _refresh_flags(self) -> None:
        flags = 0
        if not self._up:
            flags |= _F_DOWN
        if self._drop_filter is not None:
            flags |= _F_DROP_FILTER
        if self._phantom is not None:
            flags |= _F_PHANTOM
        if self._rcp_controller is not None:
            flags |= _F_RCP
        if self._pfc is not None:
            flags |= _F_PFC
        if self._pfc_paused:
            flags |= _F_PAUSED
        if self._on_transmit is not None:
            flags |= _F_ON_TRANSMIT
        if self._on_enqueue is not None:
            flags |= _F_ON_ENQUEUE
        if self._lowprio_queue is not None:
            flags |= _F_LOWPRIO
        self._flags = flags

    @property
    def lowprio_queue(self) -> Optional[DataQueue]:
        return self._lowprio_queue

    @lowprio_queue.setter
    def lowprio_queue(self, value: Optional[DataQueue]) -> None:
        self._lowprio_queue = value
        self._refresh_flags()

    @property
    def phantom(self) -> Optional[PhantomQueue]:
        return self._phantom

    @phantom.setter
    def phantom(self, value: Optional[PhantomQueue]) -> None:
        self._phantom = value
        self._refresh_flags()

    @property
    def rcp_controller(self):
        return self._rcp_controller

    @rcp_controller.setter
    def rcp_controller(self, value) -> None:
        self._rcp_controller = value
        self._refresh_flags()

    @property
    def on_transmit(self):
        """Optional hook called with each packet as it hits the wire
        (used by :class:`repro.net.trace.PortTracer`)."""
        return self._on_transmit

    @on_transmit.setter
    def on_transmit(self, value) -> None:
        self._on_transmit = value
        self._refresh_flags()

    @property
    def on_enqueue(self):
        """Optional hook called as ``on_enqueue(pkt, accepted)`` after each
        enqueue decision (used by :class:`repro.audit.NetworkAuditor` to
        bound queue occupancy).  Installers must chain any prior hook."""
        return self._on_enqueue

    @on_enqueue.setter
    def on_enqueue(self, value) -> None:
        self._on_enqueue = value
        self._refresh_flags()

    @property
    def obs(self):
        """Optional :class:`repro.obs.MetricsRegistry` observing this port.

        Deliberately *not* part of the flags word: the registry reads port
        and queue statistics at snapshot time instead of hooking the
        per-packet path, so attaching it must not perturb ``_flags`` (and
        golden traces).  The only event-driven signal is the transmitter's
        rare credit-throttle sleep branch, which checks the slot directly.
        """
        return self._obs

    @obs.setter
    def obs(self, value) -> None:
        self._obs = value

    @property
    def pfc(self):
        """Priority flow control (802.1Qbb analog): the installed controller
        watching this port's data queue."""
        return self._pfc

    @pfc.setter
    def pfc(self, value) -> None:
        self._pfc = value
        self._refresh_flags()

    @property
    def pfc_paused(self) -> bool:
        """Set by the *peer* to stop our data (credits/control keep flowing,
        as PFC pauses per traffic class)."""
        return self._pfc_paused

    @pfc_paused.setter
    def pfc_paused(self, value: bool) -> None:
        self._pfc_paused = value
        self._refresh_flags()

    @property
    def up(self) -> bool:
        """Administrative/link state.  A down port drops everything handed
        to it (packets already in flight on the wire still arrive)."""
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        self._up = value
        self._refresh_flags()

    @property
    def drop_filter(self):
        """The fault-injection hook called with each packet entering the
        port; returning True silently discards it.

        Filters *chain*: install with :meth:`add_drop_filter` and remove
        with :meth:`remove_drop_filter` so multiple injectors
        (:class:`repro.net.fault.LossInjector`, chaos faults) compose — a
        packet is dropped by the first filter that claims it, and later
        filters never see packets an earlier one ate.  This property reads
        the composed entry point (a single filter is installed bare, so the
        common one-injector case costs no extra call); assigning it keeps
        the legacy replace-the-whole-chain semantics.
        """
        return self._drop_filter

    @drop_filter.setter
    def drop_filter(self, value) -> None:
        self._drop_filters = [] if value is None else [value]
        self._sync_drop_filter()

    def add_drop_filter(self, fn) -> None:
        """Append ``fn`` to the drop-filter chain (evaluated in install
        order; first True wins)."""
        self._drop_filters.append(fn)
        self._sync_drop_filter()

    def remove_drop_filter(self, fn) -> None:
        """Remove exactly ``fn`` from the chain, leaving other filters
        installed.  Raises ``ValueError`` if it is not installed."""
        self._drop_filters.remove(fn)
        self._sync_drop_filter()

    def _sync_drop_filter(self) -> None:
        filters = self._drop_filters
        if not filters:
            self._drop_filter = None
        elif len(filters) == 1:
            self._drop_filter = filters[0]
        else:
            self._drop_filter = self._run_drop_filters
        self._refresh_flags()

    def _run_drop_filters(self, pkt: Packet) -> bool:
        for fn in self._drop_filters:
            if fn(pkt):
                return True
        return False

    # -- naming ------------------------------------------------------------
    @property
    def name(self) -> str:
        return f"{self.node.name}->{self.peer.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} {self.rate_bps / 1e9:g}Gbps>"

    # -- ingress side of the egress object ----------------------------------
    def send(self, pkt: Packet) -> bool:
        """Enqueue ``pkt`` for transmission; returns False if it was dropped."""
        flags = self._flags
        if flags & _F_OBSERVED or pkt.low_priority:
            # (The first low-priority packet must create its queue.)
            return self._send_checked(pkt)
        # At most an RCP controller is attached; its arrival stamp never
        # looks at the queue.
        sim = self.sim
        now = sim.now
        credit = pkt.is_credit
        data_queue = self.data_queue
        credit_queue = self.credit_queue
        if credit:
            queue = credit_queue
        else:
            queue = data_queue
            if flags:
                self._rcp_controller.on_arrival(pkt, now)
        if (not data_queue.bytes and not credit_queue.bytes
                and type(credit_queue) is CreditQueue
                and (not self._busy or self._line_free())
                and (not credit
                     or self.credit_bucket.try_consume(pkt.wire_bytes, now))):
            # Cut-through: _try_send would dequeue this very packet in this
            # call.  Start the transmission as _transmit does with every
            # queue empty (the deferred completion's key, then the
            # delivery's).  A credit short of tokens queues instead; trying
            # the meter again at the same instant changes nothing.
            if queue.pass_through(pkt, now):
                self._busy = True
                wire = pkt.wire_bytes
                tx = self._tx_cache.get(wire)
                if tx is None:
                    tx = self._tx_cache[wire] = tx_time_ps(wire, self.rate_bps)
                stats = self.stats
                if credit:
                    stats.credit_bytes_sent += wire
                    stats.credit_pkts_sent += 1
                else:
                    stats.data_bytes_sent += wire
                    stats.data_pkts_sent += 1
                stats.busy_ps += tx
                self._tx_key = sim.reserve_key()
                self._free_at = now + tx
                heappush(sim._heap, (now + tx + self.prop_delay_ps,
                                     sim.reserve_key(), None,
                                     self.peer.receive, (pkt, self)))
                return True
        elif queue.enqueue(pkt, now):
            if self._busy:
                key = self._tx_key
                if key is None:
                    return True  # the completion is in the heap
                if not self._line_free():
                    # Still ahead: materialise it, as _try_send would.
                    self._tx_key = None
                    sim.push_reserved(self._free_at, key, self._tx_done)
                    return True
            elif (credit and not data_queue.bytes
                  and type(credit_queue) is CreditQueue):
                # A free line and only credits waiting: _try_send would send
                # the head credit, or sleep until the meter can pay for it.
                wait = self.credit_bucket.time_until(
                    credit_queue.head().wire_bytes, now)
                if wait:
                    obs = self._obs
                    if obs is not None:
                        obs.credit_throttled += 1
                    self._waker.arm(wait)
                    return True
            self._try_send()
            return True
        flow = pkt.flow
        if flow is not None:
            (flow.on_credit_dropped if credit else flow.on_data_dropped)(pkt, self)
        return False

    def _send_checked(self, pkt: Packet) -> bool:
        """The fully-checked send path: attachments, PFC, faults, hooks."""
        if self._drop_filter is not None and self._drop_filter(pkt):
            return False
        if not self._up:
            if pkt.is_credit:
                if pkt.flow is not None:
                    pkt.flow.on_credit_dropped(pkt, self)
            elif pkt.flow is not None:
                pkt.flow.on_data_dropped(pkt, self)
            return False
        now = self.sim.now
        if pkt.is_credit:
            ok = self.credit_queue.enqueue(pkt, now)
            if not ok and pkt.flow is not None:
                pkt.flow.on_credit_dropped(pkt, self)
        elif pkt.low_priority:
            if self._lowprio_queue is None:
                self.lowprio_queue = DataQueue(self.data_queue.capacity_bytes,
                                               birth_ps=now)
            ok = self._lowprio_queue.enqueue(pkt, now)
            if not ok and pkt.flow is not None:
                pkt.flow.on_data_dropped(pkt, self)
        else:
            if self._phantom is not None:
                self._phantom.on_arrival(pkt, now)
            if self._rcp_controller is not None:
                self._rcp_controller.on_arrival(pkt, now)
            ok = self.data_queue.enqueue(pkt, now)
            if not ok and pkt.flow is not None:
                pkt.flow.on_data_dropped(pkt, self)
            if ok and self._pfc is not None:
                self._pfc.on_queue_change(self)
        if self._on_enqueue is not None:
            self._on_enqueue(pkt, ok)
        if ok and (not self._busy or self._tx_key is not None):
            self._try_send()  # (else the completion is in the heap)
        return ok

    # -- transmitter ---------------------------------------------------------
    def _line_free(self) -> bool:
        """While ``_busy``: is the line free at the entry being dispatched?
        The one place ``_busy`` is cleared outside ``_tx_done``: a deferred
        completion (``_tx_key`` set) is settled here — had it been
        scheduled, would it already have fired?"""
        key = self._tx_key
        if key is None:
            return False  # the completion is in the heap
        sim = self.sim
        free_at = self._free_at
        now = sim.now
        if now < free_at or (now == free_at and sim.dispatch_key < key):
            return False
        self._busy = False
        return True

    def _try_send(self) -> None:
        if self._busy and not self._line_free():
            key = self._tx_key
            if key is not None:
                # Still ahead: materialise it under the reserved key, so it
                # pops exactly where the eager one would, and calls back.
                self._tx_key = None
                self.sim.push_reserved(self._free_at, key, self._tx_done)
            return  # the completion is in the heap and will call back
        if self._flags:
            return self._try_send_checked()
        now = self.sim.now
        head = self.credit_queue.head()
        # Byte-based metering: a jittered 84..92 B credit consumes its actual
        # wire size, so successive credit drain slots vary by a few percent.
        # This is the switch-level jitter the paper creates by randomizing
        # credit sizes (§3.1) — it de-synchronizes which flow's credit wins
        # each free queue slot, making drops uniform across flows.
        if head is not None and self.credit_bucket.try_consume(head.wire_bytes, now):
            self._transmit(self.credit_queue.dequeue(now))
            return
        pkt = self.data_queue.dequeue(now)
        if pkt is not None:
            self._transmit(pkt)
            return
        if head is not None:
            # Only credits wait; sleep until the bucket has refilled.
            obs = self._obs
            if obs is not None:
                obs.credit_throttled += 1
            wait = self.credit_bucket.time_until(head.wire_bytes, now)
            self._waker.arm(max(wait, 1))

    def _try_send_checked(self) -> None:
        """The fully-checked transmit scheduler: PFC and low-priority."""
        now = self.sim.now
        head = self.credit_queue.head()
        if head is not None and self.credit_bucket.try_consume(head.wire_bytes, now):
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
            obs = self._obs
            if obs is not None:
                obs.credit_throttled += 1
            wait = self.credit_bucket.time_until(head.wire_bytes, now)
            self._waker.arm(max(wait, 1))

    def _transmit(self, pkt: Packet) -> None:
        if self._on_transmit is not None:
            self._on_transmit(pkt)
        self._busy = True
        waker = self._waker
        if waker._event is not None:
            waker.disarm()
        wire = pkt.wire_bytes
        tx = self._tx_cache.get(wire)
        if tx is None:
            tx = tx_time_ps(wire, self.rate_bps)
            self._tx_cache[wire] = tx
        stats = self.stats
        if pkt.is_credit:
            stats.credit_bytes_sent += wire
            stats.credit_pkts_sent += 1
        else:
            stats.data_bytes_sent += wire
            stats.data_pkts_sent += 1
        stats.busy_ps += tx
        # A completion only matters if something waits for the line.  With
        # all queues empty it is not scheduled: its tie-break key is reserved
        # (consuming the sequence number the event would have) and
        # _line_free settles it on the next arrival.  Queues may be replaced
        # (net/classes.py), so ask through the protocol (``bytes``), never a
        # queue's internals.
        # Both pushes are ``schedule_unref`` without its frame (the engine's
        # heap contract).
        sim = self.sim
        now = sim.now
        lowprio = self._lowprio_queue
        if (self.data_queue.bytes or self.credit_queue.bytes
                or (lowprio is not None and lowprio.bytes)):
            self._tx_key = None
            heappush(sim._heap,
                     (now + tx, sim.reserve_key(), None, self._tx_done, ()))
        else:
            self._tx_key = sim.reserve_key()
            self._free_at = now + tx
        heappush(sim._heap, (now + tx + self.prop_delay_ps, sim.reserve_key(),
                             None, self.peer.receive, (pkt, self)))

    def _tx_done(self) -> None:
        self._busy = False
        credit_queue = self.credit_queue
        if (not self._flags and not self.data_queue.bytes
                and credit_queue.bytes and type(credit_queue) is CreditQueue):
            # Only credits wait: _try_send would send the head one, or
            # sleep until the meter can pay for it.
            wait = self.credit_bucket.time_until(credit_queue.head().wire_bytes,
                                                 self.sim.now)
            if wait:
                obs = self._obs
                if obs is not None:
                    obs.credit_throttled += 1
                self._waker.arm(wait)
                return
        self._try_send()

    def set_pfc_paused(self, paused: bool) -> None:
        """Called by the peer's PFC controller (after wire delay)."""
        if self._pfc_paused and not paused:
            self.pfc_paused = False
            self._try_send()
        else:
            self.pfc_paused = paused

    # -- reporting -----------------------------------------------------------
    def utilization(self, interval_ps: int) -> float:
        """Fraction of ``interval_ps`` the line spent transmitting."""
        return self.stats.busy_ps / interval_ps if interval_ps > 0 else 0.0

    def data_throughput_bps(self, interval_ps: int) -> float:
        """Average delivered data rate (wire bytes) over ``interval_ps``."""
        if interval_ps <= 0:
            return 0.0
        return self.stats.data_bytes_sent * 8 * 1e12 / interval_ps
