"""End-to-end tests for the ExpressPass protocol."""

import pytest

from repro.core import (
    ExpressPassFlow,
    ExpressPassParams,
    ReceiverState,
    SenderState,
    max_credit_rate_cps,
)
from repro.metrics import jain_index
from repro.net.packet import data_packet
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, SEC, US

from tests.conftest import small_dumbbell, small_star

PARAMS = ExpressPassParams(rtt_hint_ps=40 * US)


class TestMaxCreditRate:
    def test_10g(self):
        # One credit per 1622B slot.
        assert max_credit_rate_cps(10 * GBPS) == pytest.approx(770_653, rel=1e-3)

    def test_scales_linearly(self):
        assert max_credit_rate_cps(40 * GBPS) == pytest.approx(
            4 * max_credit_rate_cps(10 * GBPS))


class TestLifecycle:
    def test_transfer_completes(self, sim):
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 1_000_000,
                               params=PARAMS)
        sim.run(until=SEC)
        assert flow.completed
        assert flow.bytes_delivered == 1_000_000

    def test_state_machines_settle(self, sim):
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 100_000,
                               params=PARAMS)
        sim.run(until=SEC)
        assert flow.sender_state == SenderState.CSTOP_SENT
        assert flow.receiver_state == ReceiverState.STOPPED

    def test_no_events_leak_after_completion(self, sim):
        topo = small_dumbbell(sim)
        ExpressPassFlow(topo.senders[0], topo.receivers[0], 100_000,
                        params=PARAMS)
        sim.run(until=SEC)
        assert sim.pending() == 0

    def test_receiver_holds_crediting_state_only_while_crediting(self, sim):
        """The stream, the credit send times and the loss epochs exist from
        CREDIT_REQUEST to CREDIT_STOP and no longer: STOPPED is terminal."""
        crediting = ("_rng", "_credit_sent_ts", "_epochs")
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 500_000,
                               params=PARAMS)
        assert [getattr(flow, a) for a in crediting] == [None] * 3
        sim.run(until=100 * US)
        assert flow.receiver_state == ReceiverState.CREDIT_SENDING
        assert all(getattr(flow, a) is not None for a in crediting)
        sim.run(until=SEC)
        assert flow.completed
        assert flow.receiver_state == ReceiverState.STOPPED
        assert [getattr(flow, a) for a in crediting] == [None] * 3

    def test_stopping_a_crediting_receiver_drops_its_state(self, sim):
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                               params=PARAMS)
        sim.run(until=MS)
        flow.stop()
        assert flow.receiver_state == ReceiverState.STOPPED
        assert flow._rng is flow._credit_sent_ts is flow._epochs is None
        sim.run(until=2 * MS)  # in-flight data still lands without raising

    def test_late_data_echo_after_credit_stop_is_ignored(self, sim):
        """A credited segment that reaches a stopped receiver (a duplicate
        after a go-back-N rewind) resolves no credit and does not raise."""
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 100_000,
                               params=PARAMS)
        sim.run(until=SEC)
        assert flow.receiver_state == ReceiverState.STOPPED
        echo = flow._expected_echo
        flow.src.send(data_packet(flow.src.id, flow.dst.id, flow,
                                  payload_bytes=flow.MSS, seq=0,
                                  credit_seq=echo + 3))
        sim.run(until=2 * SEC)
        assert flow._expected_echo == echo
        assert flow.bytes_delivered == 100_000

    def test_single_packet_flow(self, sim):
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 1,
                               params=PARAMS)
        sim.run(until=SEC)
        assert flow.completed
        assert flow.credits_used == 1

    def test_single_packet_flow_wastes_about_a_bdp_of_credits(self):
        # Paper Fig 8b: at alpha=1 a 1-packet flow wastes roughly the credits
        # sent during one RTT + stop timeout (~80 at RTT 100 us, 10 Gbit/s).
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        params = ExpressPassParams(rtt_hint_ps=40 * US,
                                   initial_rate_fraction=1.0, w_init=0.5)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 1,
                               params=params)
        sim.run(until=SEC)
        # RTT ~26us + 20us stop timeout at max credit rate ~ 35 credits.
        assert 10 < flow.credits_wasted < 80
        assert flow.credit_waste_ratio > 0.9

    def test_lower_alpha_wastes_fewer_credits(self):
        wastes = []
        for alpha in (1.0, 1 / 16):
            sim = Simulator(seed=1)
            topo = small_dumbbell(sim)
            params = ExpressPassParams(rtt_hint_ps=40 * US).with_alpha(alpha)
            flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 1,
                                   params=params)
            sim.run(until=SEC)
            wastes.append(flow.credits_wasted)
        assert wastes[1] < wastes[0]

    def test_persistent_flow_runs_until_stopped(self, sim):
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                               params=PARAMS)
        sim.run(until=10 * MS)
        assert flow.bytes_delivered > 0
        flow.stop()
        delivered = flow.bytes_delivered
        sim.run(until=11 * MS)
        assert flow.bytes_delivered - delivered < 50 * 1500


class TestZeroLoss:
    def test_no_data_loss_under_incast(self):
        sim = Simulator(seed=2)
        topo = small_star(sim, 9)
        sink = topo.hosts[0]
        flows = [ExpressPassFlow(h, sink, 500_000, params=PARAMS)
                 for h in topo.hosts[1:]]
        sim.run(until=SEC)
        assert all(f.completed for f in flows)
        assert topo.net.total_data_drops() == 0

    def test_bounded_queue_under_incast(self):
        sim = Simulator(seed=2)
        topo = small_star(sim, 17)
        sink = topo.hosts[0]
        flows = [ExpressPassFlow(h, sink, None, params=PARAMS)
                 for h in topo.hosts[1:]]
        sim.run(until=20 * MS)
        for f in flows:
            f.stop()
        # Bounded by a handful of MTUs — not proportional to fan-in.
        assert topo.net.max_data_queue_bytes() < 16 * 1538

    def test_recovers_from_forced_data_loss(self):
        # Pathologically tiny data buffers CAN drop ExpressPass data; the
        # go-back-N resync must still complete the flow (§3.1).
        sim = Simulator(seed=3)
        topo = small_dumbbell(sim, n_pairs=4, data_capacity_bytes=2 * 1538)
        flows = [ExpressPassFlow(s, r, 200_000, params=PARAMS)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=SEC)
        assert all(f.completed for f in flows)
        assert all(f.bytes_delivered >= 200_000 for f in flows)


class TestFairnessAndUtilization:
    def test_two_flows_split_evenly(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=2)
        flows = [ExpressPassFlow(s, r, None, params=PARAMS)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=20 * MS)
        base = [f.bytes_delivered for f in flows]
        sim.run(until=40 * MS)
        rates = [f.bytes_delivered - b for f, b in zip(flows, base)]
        for f in flows:
            f.stop()
        assert jain_index(rates) > 0.95

    def test_utilization_near_credit_ceiling(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=8)
        flows = [ExpressPassFlow(s, r, None, params=PARAMS)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=20 * MS)
        base = sum(f.bytes_delivered for f in flows)
        sim.run(until=40 * MS)
        goodput = (sum(f.bytes_delivered for f in flows) - base) * 8 / 0.02
        for f in flows:
            f.stop()
        ceiling = 10 * GBPS * (1538 / 1626) * (1500 / 1538)
        assert goodput > 0.93 * ceiling

    def test_credit_drops_are_the_control_signal(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=4)
        flows = [ExpressPassFlow(s, r, None, params=PARAMS)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=20 * MS)
        for f in flows:
            f.stop()
        assert topo.net.total_credit_drops() > 0
        assert topo.net.total_data_drops() == 0


class TestNaiveMode:
    def test_naive_flow_sends_at_max_rate(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        params = ExpressPassParams(naive=True, rtt_hint_ps=40 * US)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                               params=params)
        sim.run(until=5 * MS)
        flow.stop()
        assert flow.feedback.cur_rate == flow.max_rate_cps

    def test_naive_single_flow_saturates(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        params = ExpressPassParams(naive=True, rtt_hint_ps=40 * US)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                               params=params)
        sim.run(until=10 * MS)
        flow.stop()
        goodput = flow.bytes_delivered * 8 / 0.01
        ceiling = 10 * GBPS * (1538 / 1626) * (1500 / 1538)
        assert goodput > 0.9 * ceiling


class TestCreditAccounting:
    def test_echo_accounting_consistent(self, sim):
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 500_000,
                               params=PARAMS)
        sim.run(until=SEC)
        assert flow.credits_used + flow.credits_wasted == flow.credits_received
        assert flow.credits_received <= flow.credits_sent

    def test_rtt_estimate_reasonable(self, sim):
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 500_000,
                               params=PARAMS)
        sim.run(until=SEC)
        # Dumbbell base RTT ~25 us; allow queueing slack.
        assert 15 * US < flow._srtt_ps < 120 * US
