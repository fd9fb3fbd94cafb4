"""Flow lifecycle and the two reusable transfer engines.

:class:`Flow`
    Identity (4-tuple, symmetric hash), start/finish bookkeeping, delivery
    dispatch, and drop accounting.  Everything that moves packets derives
    from it, including ExpressPass in :mod:`repro.core`.

:class:`WindowFlow`
    Reliable, segment-based, window-controlled transfer with cumulative
    ACKs, out-of-order buffering (SACK-like single-hole recovery), fast
    retransmit on three duplicate ACKs, and an RTO.  Congestion control is
    supplied by subclasses through small hooks, so TCP Reno, CUBIC, DCTCP,
    HULL, and DX are each only a page of code.

:class:`RateFlow`
    Reliable, explicitly paced transfer for rate-assigned protocols (RCP,
    the ideal oracle).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.host import Host
from repro.net.packet import (
    MTU_PAYLOAD,
    Packet,
    PacketKind,
    data_packet,
)
from repro.net.routing import asymmetric_flow_hash, symmetric_flow_hash
from repro.sim.engine import Timer
from repro.sim.units import MS, SEC, US, tx_time_ps

class Flow:
    """Base class: one unidirectional transfer from ``src`` to ``dst``.

    ``size_bytes=None`` makes the flow persistent (long-running, never
    completes) — used by the convergence and fairness microbenchmarks.
    """

    MSS = MTU_PAYLOAD

    def __init__(
        self,
        src: Host,
        dst: Host,
        size_bytes: Optional[int],
        start_ps: int = 0,
        symmetric_routing: bool = True,
    ):
        if src is dst:
            raise ValueError("flow endpoints must differ")
        if size_bytes is not None and size_bytes <= 0:
            raise ValueError("flow size must be positive (or None for persistent)")
        self.sim = src.sim
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.start_ps = start_ps
        self.fid = self.sim.next_flow_id()
        self.sport = self.sim.next_port_number()
        self.dport = self.sim.next_port_number()
        self._symmetric = symmetric_routing
        self._sym_hash = symmetric_flow_hash(src.id, dst.id, self.sport, self.dport)
        self.finish_ps: Optional[int] = None
        self.bytes_delivered = 0  # first-copy payload bytes seen by the receiver
        self.data_drops = 0
        self.credit_drops = 0
        self.retransmissions = 0
        self._path_salt = 0
        self.path_rehashes = 0
        self.on_complete: List[Callable[["Flow"], None]] = []
        self._started = False
        self._start_evt = self.sim.schedule_at(max(start_ps, self.sim.now),
                                               self._start_event)
        auditor = self.sim.auditor
        if auditor is not None:
            auditor.register_flow(self)
        #: :class:`repro.obs.FlowSpan` when metrics are on, else None — so
        #: instrumentation points cost one attribute check per event.
        self.obs_span = None
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.register_flow(self)

    # -- identity -----------------------------------------------------------
    def path_hash(self, pkt: Packet) -> int:
        """ECMP hash for this packet.  Symmetric by default (§3.1)."""
        if self._symmetric:
            return self._sym_hash
        salt = 7919 * self._path_salt
        return asymmetric_flow_hash(pkt.src, pkt.dst,
                                    (self.sport if pkt.src == self.src.id else self.dport) + salt,
                                    (self.dport if pkt.src == self.src.id else self.sport) + salt)

    def rehash_path(self) -> None:
        """Re-roll the flow's ECMP hash to steer around a dead path.

        The salted hash is still *symmetric* — one shared value covers both
        directions, so credits and data move to the mirrored new path in the
        same instant (§3.1 holds across the move).  Deterministic: the salt
        is a per-flow counter, not randomness.
        """
        self._path_salt += 1
        salt = 7919 * self._path_salt  # prime stride decorrelates consecutive salts
        self._sym_hash = symmetric_flow_hash(
            self.src.id, self.dst.id, self.sport + salt, self.dport + salt)
        self.path_rehashes += 1
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("transport.path_rehashes").inc()
            metrics.log_event(self.sim.now, "path_rehash", self.fid)

    @property
    def completed(self) -> bool:
        return self.finish_ps is not None

    @property
    def fct_ps(self) -> Optional[int]:
        """Flow completion time: arrival to last payload byte delivered."""
        if self.finish_ps is None:
            return None
        return self.finish_ps - self.start_ps

    # -- lifecycle ----------------------------------------------------------
    def _start_event(self) -> None:
        self._started = True
        if self.obs_span is not None:
            self.obs_span.mark("start", self.sim.now)
        self.begin()

    def begin(self) -> None:
        """Protocol-specific start logic (override)."""
        raise NotImplementedError

    def stop(self) -> None:
        """Abort the flow: never start if pending, stop timers if running.

        Subclasses extend this to cancel their own timers.
        """
        self._start_evt.cancel()
        if self.obs_span is not None:
            self.obs_span.mark("stop", self.sim.now)

    def _complete(self) -> None:
        if self.finish_ps is None:
            self.finish_ps = self.sim.now
            if self.obs_span is not None:
                self.obs_span.finish(self)
            for callback in self.on_complete:
                callback(self)

    # -- delivery dispatch ----------------------------------------------------
    def deliver(self, host: Host, pkt: Packet) -> None:
        if host.id == self.dst.id:
            self._at_receiver(pkt)
        elif host.id == self.src.id:
            self._at_sender(pkt)
        else:  # pragma: no cover - routing bug guard
            raise RuntimeError(f"flow {self.fid} packet delivered to {host.name}")

    def _at_receiver(self, pkt: Packet) -> None:
        raise NotImplementedError

    def _at_sender(self, pkt: Packet) -> None:
        raise NotImplementedError

    # -- network callbacks -----------------------------------------------------
    def on_data_dropped(self, pkt: Packet, port) -> None:
        self.data_drops += 1

    def on_credit_dropped(self, pkt: Packet, port) -> None:
        self.credit_drops += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = "inf" if self.size_bytes is None else self.size_bytes
        return f"<{type(self).__name__} #{self.fid} {self.src.name}->{self.dst.name} {size}B>"


class WindowFlow(Flow):
    """Reliable window-based transfer.  Subclasses provide congestion control.

    Hook points (all optional overrides):

    * :meth:`cc_on_ack` — every new cumulative ACK (RTT sample attached).
    * :meth:`cc_on_round` — once per window of data (for per-RTT controllers).
    * :meth:`cc_on_dupack_loss` / :meth:`cc_on_timeout` — loss reactions.
    * :attr:`cwnd` — congestion window in segments (float, floored at
      ``min_cwnd`` when applied).
    """

    ecn_capable = False
    paced = False
    min_cwnd = 1.0
    init_cwnd = 2.0
    DUPACK_THRESHOLD = 3
    #: Consecutive RTOs (no ACK progress between them) before the flow
    #: assumes its ECMP path is dead and re-hashes onto another one.
    REHASH_AFTER_RTOS = 3
    #: Exponential-backoff ceiling for consecutive RTOs (RFC 6298 style).
    MAX_RTO_BACKOFF = 64
    #: Model the TCP 3-way handshake: data flows one RTT after the flow
    #: starts, matching ExpressPass's credit-request round trip so FCT
    #: comparisons are apples-to-apples.
    handshake = True

    def __init__(self, src, dst, size_bytes, start_ps=0, *,
                 min_rto_ps: int = 2 * MS, symmetric_routing: bool = True):
        super().__init__(src, dst, size_bytes, start_ps, symmetric_routing)
        if size_bytes is None:
            self.total_segments = None
        else:
            self.total_segments = -(-size_bytes // self.MSS)
        self.cwnd = self.init_cwnd
        # sender state
        self._next_seq = 0
        self._cum_acked = -1  # highest cumulatively ACKed segment
        self._dupacks = 0
        self._recover_seq = -1  # fast-recovery guard
        self._rto = Timer(self.sim, self._on_rto)
        self._min_rto_ps = min_rto_ps
        self._rto_streak = 0    # consecutive RTOs without ACK progress
        self._rto_backoff = 1   # integer multiplier; 1 until an RTO fires
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._pacing_event = None
        # receiver state
        self._rcv_expected = 0
        self._rcv_ooo = set()
        # per-round bookkeeping for cc_on_round
        self._round_end_seq = 0
        self._round_acks = 0
        self._round_marks = 0
        self._round_rtt_sum = 0.0
        self._stopped = False

    # -- congestion-control hooks (defaults: fixed window) ---------------------
    def cc_on_ack(self, newly_acked: int, ecn_echo: bool,
                  rtt_sample_ps: Optional[int]) -> None:
        """Called for every ACK advancing the cumulative point."""

    def cc_on_round(self, acks: int, marks: int,
                    avg_rtt_ps: Optional[float]) -> None:
        """Called once per window's worth of ACKs (a "round" ~ one RTT)."""

    def cc_on_dupack_loss(self) -> None:
        """Loss inferred from duplicate ACKs (fast retransmit fired)."""

    def cc_on_timeout(self) -> None:
        """Retransmission timer fired."""

    # -- sender -------------------------------------------------------------
    def begin(self) -> None:
        if self.handshake:
            self.src.send(Packet(PacketKind.CONTROL, self.src.id, self.dst.id,
                                 flow=self, seq=-1))
        else:
            self._maybe_send()

    def stop(self) -> None:
        """Abort the flow (used when tearing an experiment down)."""
        super().stop()
        self._stopped = True
        self._rto.disarm()
        if self._pacing_event is not None:
            self._pacing_event.cancel()

    def _inflight(self) -> int:
        return self._next_seq - (self._cum_acked + 1)

    def _window_allows(self) -> bool:
        if self.total_segments is not None and self._next_seq >= self.total_segments:
            return False
        return self._inflight() < max(self.min_cwnd, self.cwnd)

    def _segment_payload(self, seq: int) -> int:
        if self.size_bytes is None or self.total_segments is None:
            return self.MSS
        if seq < self.total_segments - 1:
            return self.MSS
        return self.size_bytes - (self.total_segments - 1) * self.MSS

    def _pacing_rate_bps(self) -> Optional[float]:
        """Pacing rate for ``paced`` subclasses: cwnd per smoothed RTT."""
        if self._srtt is None or self._srtt <= 0:
            return None
        return max(self.min_cwnd, self.cwnd) * self.MSS * 8 * SEC / self._srtt

    def _maybe_send(self) -> None:
        if self._stopped:
            return
        if not self.paced:
            while self._window_allows():
                self._emit_segment(self._next_seq, retransmit=False)
                self._next_seq += 1
            return
        # Paced mode: one segment now, next one when the pacer allows.
        if self._pacing_event is not None:
            return
        if not self._window_allows():
            return
        self._emit_segment(self._next_seq, retransmit=False)
        self._next_seq += 1
        rate = self._pacing_rate_bps()
        if rate:
            gap = int(self.MSS * 8 * SEC / rate)
            self._pacing_event = self.sim.schedule(max(gap, 1), self._pace_tick)

    def _pace_tick(self) -> None:
        self._pacing_event = None
        self._maybe_send()

    def _emit_segment(self, seq: int, retransmit: bool) -> None:
        pkt = data_packet(
            self.src.id, self.dst.id, self,
            payload_bytes=self._segment_payload(seq),
            seq=seq,
            ecn_capable=self.ecn_capable,
            sent_ts=-1 if retransmit else self.sim.now,
        )
        if retransmit:
            self.retransmissions += 1
        self.src.send(pkt)
        self._rto.arm(self._current_rto_ps())

    # -- RTO ------------------------------------------------------------------
    def _current_rto_ps(self) -> int:
        if self._srtt is None:
            base = self._min_rto_ps * 4
        else:
            base = max(self._min_rto_ps, int(self._srtt + 4 * self._rttvar))
        # Integer backoff multiplier: exactly 1 until an RTO has fired, so
        # loss-free runs are bit-identical to the pre-backoff engine.
        return base * self._rto_backoff

    def _on_rto(self) -> None:
        if self._stopped or self.completed:
            return
        if self._inflight() <= 0:
            return
        # Consecutive timeouts mean retransmissions are dying too: back the
        # timer off exponentially, and after REHASH_AFTER_RTOS in a row
        # assume the ECMP path itself is dead and move the flow off it.
        self._rto_streak += 1
        self._rto_backoff = min(self._rto_backoff * 2, self.MAX_RTO_BACKOFF)
        if self.REHASH_AFTER_RTOS and self._rto_streak % self.REHASH_AFTER_RTOS == 0:
            self.rehash_path()
        # Go-back-N: rewind to the cumulative point and let cc shrink cwnd.
        self.retransmissions += self._next_seq - (self._cum_acked + 1)
        self._next_seq = self._cum_acked + 1
        self._dupacks = 0
        self._recover_seq = -1
        self.cc_on_timeout()
        self._maybe_send()
        self._rto.arm(self._current_rto_ps())

    # -- receiver ---------------------------------------------------------------
    def _at_receiver(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CONTROL and pkt.seq == -1:
            self.dst.send(Packet(PacketKind.CONTROL, self.dst.id, self.src.id,
                                 flow=self, seq=-2))
            return
        if pkt.kind != PacketKind.DATA:
            return
        if pkt.seq == self._rcv_expected:
            if self._rcv_expected == 0 and self.obs_span is not None:
                self.obs_span.mark("first_data", self.sim.now)
            self.bytes_delivered += pkt.payload_bytes
            self._rcv_expected += 1
            while self._rcv_expected in self._rcv_ooo:
                self._rcv_ooo.discard(self._rcv_expected)
                self.bytes_delivered += self._segment_payload(self._rcv_expected)
                self._rcv_expected += 1
        elif pkt.seq > self._rcv_expected and pkt.seq not in self._rcv_ooo:
            self._rcv_ooo.add(pkt.seq)
        ack = Packet(
            PacketKind.ACK, self.dst.id, self.src.id, flow=self,
            ack=self._rcv_expected - 1, sent_ts=pkt.sent_ts,
        )
        ack.ecn_echo = pkt.ecn_marked
        self.dst.send(ack)
        if (self.total_segments is not None
                and self._rcv_expected >= self.total_segments):
            self._complete()

    # -- ACK processing at the sender ---------------------------------------------
    def _at_sender(self, pkt: Packet) -> None:
        if self._stopped:
            return
        if pkt.kind == PacketKind.CONTROL and pkt.seq == -2:
            self._maybe_send()  # SYN-ACK: connection established
            return
        if pkt.kind != PacketKind.ACK:
            return
        rtt_sample = None
        if pkt.sent_ts >= 0:
            rtt_sample = self.sim.now - pkt.sent_ts
            self._update_rtt(rtt_sample)
        if pkt.ack > self._cum_acked:
            newly = pkt.ack - self._cum_acked
            self._cum_acked = pkt.ack
            self._dupacks = 0
            self._rto_streak = 0
            self._rto_backoff = 1
            if self._cum_acked >= self._recover_seq:
                self._recover_seq = -1
            self.cc_on_ack(newly, pkt.ecn_echo, rtt_sample)
            self._round_acks += newly
            if pkt.ecn_echo:
                self._round_marks += newly
            if rtt_sample is not None:
                self._round_rtt_sum += rtt_sample * newly
            if self._cum_acked + 1 >= self._round_end_seq:
                avg_rtt = (self._round_rtt_sum / self._round_acks
                           if self._round_acks and self._round_rtt_sum else None)
                self.cc_on_round(self._round_acks, self._round_marks, avg_rtt)
                self._round_acks = self._round_marks = 0
                self._round_rtt_sum = 0.0
                self._round_end_seq = self._next_seq
            if self._inflight() > 0:
                self._rto.arm(self._current_rto_ps())
            else:
                self._rto.disarm()
        else:
            self._dupacks += 1
            if pkt.ecn_echo:
                self.cc_on_ack(0, True, rtt_sample)
            if (self._dupacks == self.DUPACK_THRESHOLD
                    and self._cum_acked + 1 > self._recover_seq):
                self._recover_seq = self._next_seq - 1
                self.cc_on_dupack_loss()
                self._emit_segment(self._cum_acked + 1, retransmit=True)
        if self.total_segments is not None and self._cum_acked + 1 >= self.total_segments:
            self._rto.disarm()
            return
        self._maybe_send()

    def _update_rtt(self, sample_ps: int) -> None:
        if self._srtt is None:
            self._srtt = float(sample_ps)
            self._rttvar = sample_ps / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - sample_ps)
            self._srtt = 0.875 * self._srtt + 0.125 * sample_ps


class RateFlow(Flow):
    """Reliable transfer paced at an explicitly assigned rate.

    ``self.rate_bps`` is the payload sending rate (wire overhead is added on
    top when spacing packets, so the *wire* rate slightly exceeds it; RCP's
    controller accounts for wire bytes at the link, which closes the loop).
    Reliability is cumulative-ACK + RTO (rate protocols have no fast
    retransmit in the paper's ns-2 models either).
    """

    ecn_capable = False

    def __init__(self, src, dst, size_bytes, start_ps=0, *,
                 initial_rate_bps: float = 1e9,
                 min_rto_ps: int = 2 * MS,
                 symmetric_routing: bool = True):
        super().__init__(src, dst, size_bytes, start_ps, symmetric_routing)
        if size_bytes is None:
            self.total_segments = None
        else:
            self.total_segments = -(-size_bytes // self.MSS)
        self.rate_bps = float(initial_rate_bps)
        self._next_seq = 0
        self._cum_acked = -1
        self._dupacks = 0
        self._recover_seq = -1
        self._min_rto_ps = min_rto_ps
        self._rto = Timer(self.sim, self._on_rto)
        self._rto_streak = 0
        self._rto_backoff = 1
        self._send_event = None
        self._rcv_expected = 0
        self._rcv_ooo = set()
        self._stopped = False

    # Hook: subclasses update self.rate_bps from feedback.
    def cc_on_ack(self, pkt: Packet) -> None:
        """Process protocol feedback carried on the ACK."""

    handshake = True

    def begin(self) -> None:
        if self.handshake:
            self.src.send(Packet(PacketKind.CONTROL, self.src.id, self.dst.id,
                                 flow=self, seq=-1))
        else:
            self._schedule_send(0)

    def stop(self) -> None:
        super().stop()
        self._stopped = True
        self._rto.disarm()
        if self._send_event is not None:
            self._send_event.cancel()

    def _segment_payload(self, seq: int) -> int:
        if self.size_bytes is None or self.total_segments is None:
            return self.MSS
        if seq < self.total_segments - 1:
            return self.MSS
        return self.size_bytes - (self.total_segments - 1) * self.MSS

    def _schedule_send(self, delay_ps: int) -> None:
        if self._send_event is not None:
            self._send_event.cancel()
        self._send_event = self.sim.schedule(delay_ps, self._send_tick)

    def _send_tick(self) -> None:
        self._send_event = None
        if self._stopped or self.completed:
            return
        if self.total_segments is not None and self._next_seq >= self.total_segments:
            return  # all data out; wait for ACKs / RTO
        # Local backpressure: a real NIC stalls the sender rather than drop
        # its own backlog (essential under PFC pause).  Retry shortly.
        nic = self.src.nic
        if (nic.pfc_paused
                or nic.data_queue.bytes + 1538 > nic.data_queue.capacity_bytes):
            self._schedule_send(5 * US)
            return
        payload = self._segment_payload(self._next_seq)
        pkt = data_packet(self.src.id, self.dst.id, self, payload,
                          seq=self._next_seq, sent_ts=self.sim.now,
                          ecn_capable=self.ecn_capable)
        pkt.rcp_rate = None  # stamped down by RCP-enabled ports
        self.src.send(pkt)
        self._next_seq += 1
        # The RTO guards the oldest unacknowledged segment: arm only when no
        # timer is pending — re-arming per send would let a fast sender
        # starve its own loss recovery.
        if not self._rto.armed:
            self._arm_rto()
        if self.rate_bps > 0:
            gap = int((payload + 38) * 8 * SEC / self.rate_bps)
            self._schedule_send(max(gap, 1))

    def rate_changed(self) -> None:
        """Re-pace after an external rate update (oracle reassignment)."""
        if self._stopped or self.completed or self.rate_bps <= 0:
            return
        if self._send_event is not None:
            self._send_event.cancel()
            self._send_event = None
            gap = int((self.MSS + 38) * 8 * SEC / self.rate_bps)
            self._schedule_send(max(gap, 1))

    def _arm_rto(self) -> None:
        self._rto.arm(self._min_rto_ps * 4 * self._rto_backoff)

    def _on_rto(self) -> None:
        if self._stopped or self.completed:
            return
        if self._next_seq > self._cum_acked + 1:
            # Same sustained-timeout handling as WindowFlow: back off and,
            # after three in a row, abandon the (presumed dead) ECMP path.
            self._rto_streak += 1
            self._rto_backoff = min(self._rto_backoff * 2,
                                    WindowFlow.MAX_RTO_BACKOFF)
            if self._rto_streak % WindowFlow.REHASH_AFTER_RTOS == 0:
                self.rehash_path()
            # Selective repair: the receiver buffers out-of-order segments,
            # so resending just the hole releases everything behind it.
            # (Go-back-N here would re-inject whole windows and collapse
            # goodput under synchronized drop storms.)
            hole = self._cum_acked + 1
            pkt = data_packet(self.src.id, self.dst.id, self,
                              self._segment_payload(hole), seq=hole,
                              sent_ts=-1, ecn_capable=self.ecn_capable)
            self.retransmissions += 1
            self._dupacks = 0
            self._recover_seq = self._next_seq - 1  # stay in recovery
            self.src.send(pkt)
            if self._send_event is None and (
                    self.total_segments is None
                    or self._next_seq < self.total_segments):
                self._schedule_send(0)
            self._arm_rto()

    def _at_receiver(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CONTROL and pkt.seq == -1:
            reply = Packet(PacketKind.CONTROL, self.dst.id, self.src.id,
                           flow=self, seq=-2)
            reply.rcp_rate = pkt.rcp_rate  # echo the path's current RCP rate
            self.dst.send(reply)
            return
        if pkt.kind != PacketKind.DATA:
            return
        if pkt.seq == self._rcv_expected:
            if self._rcv_expected == 0 and self.obs_span is not None:
                self.obs_span.mark("first_data", self.sim.now)
            self.bytes_delivered += pkt.payload_bytes
            self._rcv_expected += 1
            while self._rcv_expected in self._rcv_ooo:
                self._rcv_ooo.discard(self._rcv_expected)
                self.bytes_delivered += self._segment_payload(self._rcv_expected)
                self._rcv_expected += 1
        elif pkt.seq > self._rcv_expected and pkt.seq not in self._rcv_ooo:
            self._rcv_ooo.add(pkt.seq)
        ack = Packet(PacketKind.ACK, self.dst.id, self.src.id, flow=self,
                     ack=self._rcv_expected - 1, sent_ts=pkt.sent_ts)
        ack.rcp_rate = pkt.rcp_rate  # echo the path's stamped rate
        self.dst.send(ack)
        if (self.total_segments is not None
                and self._rcv_expected >= self.total_segments):
            self._complete()

    def _at_sender(self, pkt: Packet) -> None:
        if self._stopped:
            return
        if pkt.kind == PacketKind.CONTROL and pkt.seq == -2:
            self.cc_on_ack(pkt)  # pick up the stamped rate, if any
            self._schedule_send(0)
            return
        if pkt.kind != PacketKind.ACK:
            return
        if pkt.ack > self._cum_acked:
            self._cum_acked = pkt.ack
            self._dupacks = 0
            self._rto_streak = 0
            self._rto_backoff = 1
            if self._recover_seq >= 0 and self._cum_acked < self._recover_seq:
                # NewReno partial ACK: the next hole is known immediately —
                # repair it now instead of waiting for dupacks or the RTO.
                hole = self._cum_acked + 1
                self.retransmissions += 1
                self.src.send(data_packet(
                    self.src.id, self.dst.id, self,
                    self._segment_payload(hole), seq=hole, sent_ts=-1,
                    ecn_capable=self.ecn_capable))
            elif self._cum_acked >= self._recover_seq:
                self._recover_seq = -1
            if self._next_seq > self._cum_acked + 1:
                self._arm_rto()  # restart for the next-oldest segment
            else:
                self._rto.disarm()
        elif pkt.ack == self._cum_acked and self._next_seq > self._cum_acked + 1:
            self._dupacks += 1
            if self._dupacks == 3 and self._cum_acked + 1 > self._recover_seq:
                # Retransmit the single missing segment without waiting for
                # the RTO; rate control is unchanged (it lives in the fabric).
                self._recover_seq = self._next_seq - 1
                hole = self._cum_acked + 1
                pkt_r = data_packet(self.src.id, self.dst.id, self,
                                    self._segment_payload(hole), seq=hole,
                                    sent_ts=-1)
                self.retransmissions += 1
                self.src.send(pkt_r)
                self._arm_rto()
        self.cc_on_ack(pkt)
        if self.total_segments is not None and self._cum_acked + 1 >= self.total_segments:
            self._rto.disarm()
