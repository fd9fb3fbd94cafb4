"""Tests for the §7 extensions: credit traffic classes and opportunistic
low-priority data."""

import pytest

from repro.core import ExpressPassFlow, ExpressPassParams
from repro.metrics import jain_index
from repro.net.classes import ClassifiedCreditQueues, install_credit_classes
from repro.net.packet import credit_packet, data_packet
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC, US

from tests.conftest import small_dumbbell

PARAMS = ExpressPassParams(rtt_hint_ps=40 * US)


class _TaggedFlow:
    """Stand-in flow carrying only a credit class tag."""

    def __init__(self, credit_class):
        self.credit_class = credit_class

    def on_credit_dropped(self, pkt, port):
        pass


def credit(cls, seq=0):
    return credit_packet(2, 1, _TaggedFlow(cls), seq)


class TestClassifiedCreditQueues:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClassifiedCreditQueues({})
        with pytest.raises(ValueError):
            ClassifiedCreditQueues({0: 0})

    def test_unknown_class_maps_to_first(self):
        q = ClassifiedCreditQueues({0: 1, 1: 1})
        q.enqueue(credit(99), 0)
        assert len(q.queues[0]) == 1

    def test_strict_priority_order(self):
        q = ClassifiedCreditQueues({0: 1, 1: 1}, strict_priority=True)
        q.enqueue(credit(1, seq=10), 0)
        q.enqueue(credit(0, seq=20), 0)
        first = q.dequeue(0)
        assert first.credit_seq == 20  # class 0 jumps the line

    def test_wdrr_respects_weights(self):
        q = ClassifiedCreditQueues({0: 3, 1: 1}, capacity_pkts=40)
        for i in range(40):
            q.enqueue(credit(0, seq=i), 0)
            q.enqueue(credit(1, seq=100 + i), 0)
        served = {0: 0, 1: 0}
        for _ in range(16):
            pkt = q.dequeue(0)
            served[pkt.flow.credit_class] += 1
        # 3:1 weights -> roughly 12:4 out of 16.
        assert served[0] >= 2.0 * served[1]

    def test_aggregate_stats(self):
        q = ClassifiedCreditQueues({0: 1, 1: 1}, capacity_pkts=1)
        for i in range(3):
            q.enqueue(credit(0, seq=i), 0)
        assert q.stats.dropped == 2
        assert q.stats.enqueued == 1

    def test_byte_and_len_accounting(self):
        q = ClassifiedCreditQueues({0: 1, 1: 1})
        q.enqueue(credit(0), 0)
        q.enqueue(credit(1), 0)
        assert len(q) == 2
        assert q.bytes == 168

    def test_classes_installed_mid_run_observe_time_from_then(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        sim.run(until=1 * MS)
        port = topo.bottleneck_rev
        classified = install_credit_classes(port, weights={0: 1})
        queue = classified.queues[0]
        queue.enqueue(credit(0), sim.now)   # 84 B waits from now on
        sim.run(until=2 * MS)
        # Averaged over the 1 ms it has existed, not diluted over [0, 2 ms].
        assert queue.stats.average_bytes(sim.now) == 84.0

    def test_install_refuses_to_discard_waiting_credits(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        port = topo.bottleneck_rev
        for seq in range(3):                # burst of 2, so one credit waits
            port.send(credit_packet(topo.receivers[0].id, topo.senders[0].id,
                                    None, seq))
        assert len(port.credit_queue) > 0
        with pytest.raises(ValueError, match=port.name):
            install_credit_classes(port, weights={0: 3, 1: 1})
        sim.run()                           # drained: now it may be swapped
        install_credit_classes(port, weights={0: 3, 1: 1})

    def test_install_on_port_end_to_end(self):
        """Two flows with 3:1 credit weights share a bottleneck ~3:1."""
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=2)
        install_credit_classes(topo.bottleneck_rev, weights={0: 3, 1: 1})
        f0 = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                             params=PARAMS)
        f1 = ExpressPassFlow(topo.senders[1], topo.receivers[1], None,
                             params=PARAMS)
        f0.credit_class = 0
        f1.credit_class = 1
        sim.run(until=30 * MS)
        base = (f0.bytes_delivered, f1.bytes_delivered)
        sim.run(until=60 * MS)
        r0 = f0.bytes_delivered - base[0]
        r1 = f1.bytes_delivered - base[1]
        f0.stop()
        f1.stop()
        assert r0 > 1.8 * r1  # weighted share, with feedback-loop slack

    def test_strict_priority_end_to_end(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=2)
        install_credit_classes(topo.bottleneck_rev, weights={0: 1, 1: 1},
                               strict_priority=True)
        hi = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                             params=PARAMS)
        lo = ExpressPassFlow(topo.senders[1], topo.receivers[1], None,
                             params=PARAMS)
        hi.credit_class = 0
        lo.credit_class = 1
        sim.run(until=40 * MS)
        hi.stop()
        lo.stop()
        assert hi.bytes_delivered > 2 * lo.bytes_delivered


class TestOpportunisticData:
    def params(self, segments):
        return ExpressPassParams(rtt_hint_ps=40 * US,
                                 opportunistic_segments=segments)

    def test_small_flow_completes_one_rtt_faster(self):
        fcts = []
        for segments in (0, 8):
            sim = Simulator(seed=1)
            topo = small_dumbbell(sim)
            flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 9_000,
                                   params=self.params(segments))
            sim.run(until=SEC)
            assert flow.completed
            fcts.append(flow.fct_ps)
        assert fcts[1] < fcts[0] - 10 * US

    def test_burst_counted(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 30_000,
                               params=self.params(8))
        sim.run(until=SEC)
        assert flow.opportunistic_sent == 8
        assert flow.credits_used == flow.total_segments - 8

    def test_flow_smaller_than_burst(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 2_000,
                               params=self.params(8))
        sim.run(until=SEC)
        assert flow.completed
        assert flow.opportunistic_sent == flow.total_segments == 2
        assert sim.pending() == 0  # teardown still clean

    def test_low_priority_never_displaces_credited_data(self):
        """Credited traffic keeps its full share despite a low-prio blast."""
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=2)
        credited = ExpressPassFlow(topo.senders[0], topo.receivers[0], None,
                                   params=PARAMS)
        sim.run(until=20 * MS)  # let it reach steady state
        base = credited.bytes_delivered
        blaster = ExpressPassFlow(topo.senders[1], topo.receivers[1],
                                  3_000_000, params=self.params(2000))
        sim.run(until=40 * MS)
        credited_rate = (credited.bytes_delivered - base) * 8 / 0.02
        credited.stop()
        blaster.stop()
        # The credited flow still gets nearly the whole data capacity.
        assert credited_rate > 7.5e9

    def test_burst_loss_recovered(self):
        """Drop-prone low-prio bursts must not break reliability."""
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=4, data_capacity_bytes=4 * 1538)
        flows = [ExpressPassFlow(s, r, 120_000, params=self.params(64))
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=SEC)
        assert all(f.completed for f in flows)
        assert all(f.bytes_delivered >= 120_000 for f in flows)
