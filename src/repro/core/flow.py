"""The ExpressPass flow: end-to-end credit-scheduled transfer.

Roles (§3, Fig 3/7):

* **Sender** opens with a ``CREDIT_REQUEST`` (piggybacked on SYN in the
  paper), transmits one data packet per received credit — echoing the
  credit's sequence number — and sends ``CREDIT_STOP`` once it has had no
  data to send for a small timeout.  Credits that arrive with nothing to
  send are *wasted* (counted; Fig 8b/20).
* **Receiver** paces credits at the feedback-controlled rate with random
  jitter (Fig 6a) and randomized 84–92 B credit sizes (switch-level jitter),
  measures credit loss from gaps in the echoed sequence numbers, and runs
  Algorithm 1 once per RTT.

Data loss cannot normally happen (that is the paper's point), but the
receiver still recovers from it: a gap in data sequence numbers triggers a
go-back-N resynchronization so correctness never *depends* on zero loss
(§3.1, "ExpressPass's correct operation does not depend on zero loss").
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.feedback import CreditFeedbackControl
from repro.core.params import ExpressPassParams
from repro.core.states import (
    ReceiverState,
    SenderState,
    check_receiver_transition,
    check_sender_transition,
)
from repro.net.host import Host
from repro.net.packet import (
    CREDIT_WIRE_MAX,
    CREDIT_WIRE_MIN,
    Packet,
    PacketKind,
    credit_packet,
    data_packet,
)
from repro.sim.units import SEC, US
from repro.transport.base import Flow


def max_credit_rate_cps(link_rate_bps: int) -> float:
    """Maximum credit rate (credits/s) for a link: one credit per 1622 B slot.

    At this rate each credit's triggered max-size data packet exactly fills
    the reverse link: 84 B credit + 1538 B data = 1622 B per slot.
    """
    return link_rate_bps / (8 * (CREDIT_WIRE_MIN + 1538))


class ExpressPassFlow(Flow):
    """One credit-scheduled transfer.  See module docstring."""

    def __init__(
        self,
        src: Host,
        dst: Host,
        size_bytes: Optional[int],
        start_ps: int = 0,
        *,
        params: Optional[ExpressPassParams] = None,
        symmetric_routing: bool = True,
    ):
        super().__init__(src, dst, size_bytes, start_ps, symmetric_routing)
        self.params = params or ExpressPassParams()
        # max_rate is the credit ceiling of the *sender-side* NIC link, the
        # link whose reverse direction the data must fit (§3.2 assumes all
        # hosts share one capacity).
        self.max_rate_cps = max_credit_rate_cps(src.nic.rate_bps)
        self.feedback = CreditFeedbackControl(self.params, self.max_rate_cps)

        # --- sender state ---
        self.sender_state = SenderState.IDLE
        if size_bytes is None:
            self.total_segments = None
        else:
            self.total_segments = -(-size_bytes // self.MSS)
        self._next_seq = 0
        self.credits_received = 0
        self.credits_used = 0
        self.credits_wasted = 0
        self.opportunistic_sent = 0
        self._stop_timer = None
        self._request_timer = None
        self._last_stop_ts = -(1 << 62)

        # --- receiver state ---
        self.receiver_state = ReceiverState.IDLE
        self.credits_sent = 0
        self._credit_seq = 0
        # The crediting state — the per-flow stream, each credit's send
        # time, the loss epochs — exists only while the receiver credits
        # (``_start_crediting`` .. ``_stop_crediting``): a churn cell then
        # holds it for its live receivers, not for every flow that ran.
        self._rng = None
        self._credit_sent_ts = None
        self._expected_echo = 0
        self._rcv_expected_data = 0
        self._pacer_event = None
        self._update_event = None
        # Credit-loss accounting in "epochs": an epoch spans at least
        # ``loss_window`` consecutive credits (one update period's worth for
        # fast flows; longer in the sub-credit-per-RTT regime so a sample is
        # never a single-credit coin flip).  Each entry is
        # [start_seq, end_seq, dropped, closed_at_ps]; an epoch resolves once
        # every credit below end_seq has been echoed by data or counted as
        # dropped via an echo gap — the paper's exact #dropped/#sent.
        self._epochs = None
        self._epoch_start_seq = 0
        # Credits sent before the last rate *decrease* reflect the old rate;
        # reacting to them again would double-cut (classic control lag), so
        # resolutions below this sequence number are discarded.
        self._loss_cutoff_seq = 0
        self._srtt_ps: Optional[float] = None
        # Dead-path watchdog: consecutive feedback updates in which *every*
        # resolved credit was lost.  Congestion caps out near target_loss;
        # only a broken path (failed link, blackhole window outliving
        # reconvergence, misrouted ECMP bucket) sustains 100 % loss.
        self._dead_updates = 0
        self.path_recoveries = 0

    # ------------------------------------------------------------------ sender
    def begin(self) -> None:
        self._send_credit_request()
        if self.params.opportunistic_segments > 0:
            self._send_opportunistic_burst()

    def _send_opportunistic_burst(self) -> None:
        """§7 extension: push the first segments as low-priority data without
        waiting for credits (RC3-style).  Credited transmission then resumes
        from wherever the burst ended; any burst losses are repaired by the
        receiver's go-back-N resync."""
        budget = self.params.opportunistic_segments
        while budget > 0 and self._has_data():
            pkt = data_packet(
                self.src.id, self.dst.id, self,
                payload_bytes=self._segment_payload(self._next_seq),
                seq=self._next_seq,
            )
            pkt.low_priority = True
            self._next_seq += 1
            budget -= 1
            self.opportunistic_sent += 1
            self.src.send(pkt)
        if not self._has_data():
            self._arm_stop_timer()

    def _set_sender_state(self, new: SenderState) -> None:
        check_sender_transition(self.sender_state, new)
        self.sender_state = new

    def _send_credit_request(self) -> None:
        self._set_sender_state(SenderState.CREQ_SENT)
        pkt = Packet(PacketKind.CREDIT_REQUEST, self.src.id, self.dst.id, flow=self)
        self.src.send(pkt)
        if self._request_timer is not None:
            self._request_timer.cancel()
        self._request_timer = self.sim.schedule(
            4 * self.params.rtt_hint_ps, self._request_timeout
        )

    def _request_timeout(self) -> None:
        self._request_timer = None
        if self.sender_state == SenderState.CREQ_SENT:
            self._send_credit_request()

    def _at_sender(self, pkt: Packet) -> None:
        if pkt.kind == PacketKind.CREDIT:
            self.credits_received += 1
            if self.sender_state == SenderState.CREQ_SENT:
                if self.obs_span is not None:
                    self.obs_span.mark("first_credit", self.sim.now)
                self._set_sender_state(SenderState.CREDIT_RECEIVING)
                if self._request_timer is not None:
                    self._request_timer.cancel()
                    self._request_timer = None
            # Host credit-processing delay (∆d_host) before data goes out.
            delay = self.src.sample_delay()
            self.sim.schedule(delay, self._handle_credit, pkt.credit_seq)
        elif pkt.kind == PacketKind.CONTROL:
            # Receiver-driven resynchronization after (rare) data loss.
            if pkt.ack >= 0 and pkt.ack < self._next_seq:
                self.retransmissions += self._next_seq - pkt.ack
                self._next_seq = pkt.ack

    def _has_data(self) -> bool:
        return self.total_segments is None or self._next_seq < self.total_segments

    def _segment_payload(self, seq: int) -> int:
        if self.size_bytes is None or self.total_segments is None:
            return self.MSS
        if seq < self.total_segments - 1:
            return self.MSS
        return self.size_bytes - (self.total_segments - 1) * self.MSS

    def _handle_credit(self, credit_seq: int) -> None:
        if self.sender_state not in (SenderState.CREDIT_RECEIVING,
                                     SenderState.CSTOP_SENT):
            return
        if self._has_data():
            if self.sender_state == SenderState.CSTOP_SENT:
                # A resync rewound us after CREDIT_STOP: data again (Fig 7's
                # "new data" transition).
                self._set_sender_state(SenderState.CREDIT_RECEIVING)
            pkt = data_packet(
                self.src.id, self.dst.id, self,
                payload_bytes=self._segment_payload(self._next_seq),
                seq=self._next_seq,
                credit_seq=credit_seq,
            )
            self._next_seq += 1
            self.credits_used += 1
            self.src.send(pkt)
            if not self._has_data():
                self._arm_stop_timer()
        else:
            self.credits_wasted += 1
            if (self.sender_state == SenderState.CSTOP_SENT
                    and self.sim.now - self._last_stop_ts > 4 * self.params.rtt_hint_ps):
                # The CREDIT_STOP was probably lost; resend it.
                self._last_stop_ts = self.sim.now
                self._set_sender_state(SenderState.CSTOP_SENT)
                self.src.send(Packet(PacketKind.CREDIT_STOP, self.src.id,
                                     self.dst.id, flow=self))

    def _arm_stop_timer(self) -> None:
        if self._stop_timer is not None:
            self._stop_timer.cancel()
        self._stop_timer = self.sim.schedule(
            self.params.stop_timeout_ps, self._send_credit_stop
        )

    def _send_credit_stop(self) -> None:
        self._stop_timer = None
        if self.sender_state == SenderState.CREQ_SENT:
            # Opportunistic burst covered the whole flow before any credit
            # arrived; re-arm and wait for the first credit to stop cleanly.
            self._arm_stop_timer()
            return
        if not self._has_data() and self.sender_state == SenderState.CREDIT_RECEIVING:
            self._set_sender_state(SenderState.CSTOP_SENT)
            self._last_stop_ts = self.sim.now
            pkt = Packet(PacketKind.CREDIT_STOP, self.src.id, self.dst.id, flow=self)
            self.src.send(pkt)

    # ---------------------------------------------------------------- receiver
    def _set_receiver_state(self, new: ReceiverState) -> None:
        check_receiver_transition(self.receiver_state, new)
        self.receiver_state = new

    def _at_receiver(self, pkt: Packet) -> None:
        kind = pkt.kind
        if kind == PacketKind.DATA:
            self._receive_data(pkt)
        elif kind == PacketKind.CREDIT_REQUEST:
            if self.receiver_state == ReceiverState.IDLE:
                self._start_crediting()
        elif kind == PacketKind.CREDIT_STOP:
            if (self.total_segments is not None
                    and self._rcv_expected_data < self.total_segments):
                # Tail loss: the sender believes it is done but the last
                # segment(s) never arrived.  Keep crediting and ask for a
                # rewind instead of stopping.
                nack = Packet(PacketKind.CONTROL, self.dst.id, self.src.id,
                              flow=self, ack=self._rcv_expected_data)
                self.dst.send(nack)
            elif self.receiver_state == ReceiverState.CREDIT_SENDING:
                self._stop_crediting()

    def _start_crediting(self) -> None:
        self._set_receiver_state(ReceiverState.CREDIT_SENDING)
        # Per-flow stream (credit-size and pacing jitter): keyed by flow id
        # so a flow's draws are independent of every other flow's activity:
        # adding or removing another flow never moves this one's trajectory.
        self._rng = self.sim.rng_for("expresspass", self.fid)
        self._credit_sent_ts = {}
        self._epochs = deque()
        self._epoch_opened_ps = self.sim.now
        self._pace_credit()
        self._update_event = self.sim.schedule(
            self._update_period_ps(), self._feedback_update
        )

    def _stop_crediting(self) -> None:
        """``STOPPED`` is terminal: no credit is sent or resolved again, so
        the crediting state goes with the timers."""
        self._set_receiver_state(ReceiverState.STOPPED)
        for event in (self._pacer_event, self._update_event):
            if event is not None:
                event.cancel()
        self._pacer_event = None
        self._update_event = None
        self._rng = self._credit_sent_ts = self._epochs = None

    def _update_period_ps(self) -> int:
        if self._srtt_ps is not None:
            return max(int(self._srtt_ps), 10 * US)
        return self.params.rtt_hint_ps

    def _credit_gap_ps(self) -> int:
        gap = SEC / self.feedback.cur_rate
        j = self.params.jitter
        if j > 0:
            gap *= 1 + self._rng.uniform(-j / 2, j / 2)
        return max(int(gap), 1)

    def _pace_credit(self) -> None:
        """Send one credit and schedule the next."""
        self._pacer_event = None
        if self.receiver_state != ReceiverState.CREDIT_SENDING:
            return
        seq = self._credit_seq
        self._credit_seq += 1
        if self.params.randomize_credit_size:
            wire = self._rng.randint(CREDIT_WIRE_MIN, CREDIT_WIRE_MAX)
        else:
            wire = CREDIT_WIRE_MIN
        # Credits travel receiver -> sender: dst/src swap relative to data.
        pkt = credit_packet(self.dst.id, self.src.id, self, seq, wire)
        self._credit_sent_ts[seq] = self.sim.now
        self.credits_sent += 1
        self.dst.send(pkt)
        self._pacer_event = self.sim.schedule(self._credit_gap_ps(), self._pace_credit)

    def _attribute_drops(self, first_lost: int, next_echo: int) -> None:
        """Charge dropped credit seqs [first_lost, next_echo) to their epochs."""
        for epoch in self._epochs:
            start, end = epoch[0], epoch[1]
            if next_echo <= start:
                break
            lo = max(first_lost, start)
            hi = min(next_echo, end)
            if hi > lo:
                epoch[2] += hi - lo

    def _receive_data(self, pkt: Packet) -> None:
        # -- credit-loss accounting from the echoed credit sequence ------
        # (only while crediting: a stopped receiver resolves no credit)
        echo = pkt.credit_seq
        if echo >= self._expected_echo and self._credit_sent_ts is not None:
            if echo > self._expected_echo:
                self._attribute_drops(self._expected_echo, echo)
                for lost in range(self._expected_echo, echo):
                    self._credit_sent_ts.pop(lost, None)
            sent_ts = self._credit_sent_ts.pop(echo, None)
            if sent_ts is not None:
                sample = self.sim.now - sent_ts
                if self.obs_span is not None:
                    self.obs_span.credit_rtt(sample)
                if self._srtt_ps is None:
                    self._srtt_ps = float(sample)
                else:
                    self._srtt_ps = 0.875 * self._srtt_ps + 0.125 * sample
            self._expected_echo = echo + 1
        # -- in-order data delivery --------------------------------------
        if pkt.seq == self._rcv_expected_data:
            if self._rcv_expected_data == 0 and self.obs_span is not None:
                self.obs_span.mark("first_data", self.sim.now)
            self.bytes_delivered += pkt.payload_bytes
            self._rcv_expected_data += 1
            if (self.total_segments is not None
                    and self._rcv_expected_data >= self.total_segments):
                self._complete()
        elif pkt.seq > self._rcv_expected_data:
            # Data was lost (should not happen with sized buffers): ask the
            # sender to rewind.  Out-of-order arrivals are discarded.
            nack = Packet(PacketKind.CONTROL, self.dst.id, self.src.id,
                          flow=self, ack=self._rcv_expected_data)
            self.dst.send(nack)

    def _feedback_update(self) -> None:
        self._update_event = None
        if self.receiver_state != ReceiverState.CREDIT_SENDING:
            return
        period = self._update_period_ps()
        # Close the current epoch (one update period's worth of credits).
        pending = self._credit_seq - self._epoch_start_seq
        if pending > 0:
            self._epochs.append(
                [self._epoch_start_seq, self._credit_seq, 0, self.sim.now]
            )
            self._epoch_start_seq = self._credit_seq
        # Apply one Algorithm-1 update aggregating every *resolved* epoch.
        # Echoes arrive in credit order over a FIFO path, so an epoch still
        # unresolved several periods after it closed lost its remaining
        # credits (the all-dropped black-hole case must still terminate).
        sent = dropped = 0
        while self._epochs:
            start, end, drops, closed = self._epochs[0]
            if self._expected_echo >= end:
                if end > self._loss_cutoff_seq:
                    sent += end - start
                    dropped += drops
                self._epochs.popleft()
            elif self.sim.now - closed > 3 * period:
                if end > self._loss_cutoff_seq:
                    unresolved = end - max(self._expected_echo, start)
                    sent += end - start
                    dropped += drops + unresolved
                for lost in range(max(self._expected_echo, start), end):
                    self._credit_sent_ts.pop(lost, None)
                self._expected_echo = max(self._expected_echo, end)
                self._epochs.popleft()
            else:
                break
        if sent > 0:
            if dropped >= sent:
                self._dead_updates += 1
            else:
                self._dead_updates = 0
            threshold = self.params.recovery_dead_updates
            if threshold and self._dead_updates >= threshold:
                # Total loss, sustained: this is a dead path, and cutting
                # the rate again (Algorithm 1's only move) cannot fix it.
                # Re-hash onto another path and restart the controller.
                self._recover_path()
                self._update_event = self.sim.schedule(period, self._feedback_update)
                return
            # In the sub-credit-per-RTT regime a period's sample is a small
            # handful of credits and a raw #dropped/#sent is a coin flip
            # that can starve slow flows outright (a single dropped credit
            # reads as 100 % loss).  Shrink small samples toward the target
            # loss rate — the controller's neutral point — in proportion to
            # how far short of ``loss_window`` credits the sample is; full
            # windows use the exact ratio.
            window = self.params.loss_window
            pad = max(0, window - sent)
            loss = (dropped + self.params.target_loss * pad) / (sent + pad)
            self.feedback.update(loss)
            if self.obs_span is not None:
                self.obs_span.feedback_updates += 1
            if loss > self.params.target_loss:
                # React to one congestion event once: feedback generated by
                # pre-decrease credits must not trigger a second cut.
                self._loss_cutoff_seq = self._credit_seq
        elif not self._epochs and pending == 0:
            # Nothing in flight and nothing pending: Algorithm 1 reads an
            # idle period as zero loss, so a slow flow ramps up rather than
            # starving.
            self.feedback.update(0.0)
            if self.obs_span is not None:
                self.obs_span.feedback_updates += 1
        self._update_event = self.sim.schedule(period, self._feedback_update)

    def _recover_path(self) -> None:
        """Dead-path recovery: sustained 100 % credit loss despite rate cuts.

        Moves the flow to a different ECMP path (the shared symmetric hash
        moves credits and data together, so §3.1 symmetry holds across the
        switch), restarts Algorithm 1 from its initial rate, and discards
        every piece of feedback state tied to the old path — echoes of
        credits sent into the black hole must not feed the new controller.
        """
        self._dead_updates = 0
        self.path_recoveries += 1
        self.rehash_path()
        self.feedback.reset()
        self._epochs.clear()
        self._epoch_start_seq = self._credit_seq
        self._loss_cutoff_seq = self._credit_seq
        self._expected_echo = self._credit_seq
        self._credit_sent_ts.clear()
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter("transport.path_recoveries").inc()
            metrics.log_event(self.sim.now, "path_recovery", self.fid)

    # ---------------------------------------------------------------- cleanup
    def stop(self) -> None:
        """Tear down all timers (experiment shutdown)."""
        super().stop()
        for event in (self._stop_timer, self._request_timer,
                      self._pacer_event, self._update_event):
            if event is not None:
                event.cancel()
        self._stop_timer = self._request_timer = None
        self._pacer_event = self._update_event = None
        if self.receiver_state == ReceiverState.CREDIT_SENDING:
            self._stop_crediting()

    # ---------------------------------------------------------------- metrics
    @property
    def credit_waste_ratio(self) -> float:
        """Wasted fraction of credits that reached the sender (Fig 20)."""
        total = self.credits_used + self.credits_wasted
        return self.credits_wasted / total if total else 0.0

    @property
    def current_rate_bps(self) -> float:
        """Current credit-authorized data wire rate."""
        return self.feedback.cur_rate * 1538 * 8
