"""Tests for the reliable window and rate transfer engines."""

import pytest

from repro.net.fault import LossInjector
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, SEC, US
from repro.topology import LinkSpec, dumbbell
from repro.transport.base import RateFlow, WindowFlow

from tests.conftest import small_dumbbell


class FixedWindowFlow(WindowFlow):
    """A WindowFlow with no congestion control (fixed cwnd) for testing."""

    init_cwnd = 8.0


class TestWindowReliability:
    def test_completes_and_counts_bytes(self, sim):
        topo = small_dumbbell(sim)
        flow = FixedWindowFlow(topo.senders[0], topo.receivers[0], 100_000)
        sim.run(until=SEC)
        assert flow.completed
        assert flow.bytes_delivered == 100_000
        assert flow.retransmissions == 0

    def test_last_segment_partial(self, sim):
        topo = small_dumbbell(sim)
        flow = FixedWindowFlow(topo.senders[0], topo.receivers[0], 1501)
        sim.run(until=SEC)
        assert flow.completed
        assert flow.total_segments == 2
        assert flow.bytes_delivered == 1501

    def test_fct_includes_handshake(self, sim):
        topo = small_dumbbell(sim)
        flow = FixedWindowFlow(topo.senders[0], topo.receivers[0], 1000)
        sim.run(until=SEC)
        # One RTT handshake + one RTT data; dumbbell RTT ~25 us.
        assert flow.fct_ps > 35 * US

    def test_no_handshake_mode_is_faster(self):
        fcts = []
        for handshake in (True, False):
            sim = Simulator(seed=1)
            topo = small_dumbbell(sim)

            class F(FixedWindowFlow):
                pass

            F.handshake = handshake
            flow = F(topo.senders[0], topo.receivers[0], 1000)
            sim.run(until=SEC)
            fcts.append(flow.fct_ps)
        assert fcts[1] < fcts[0]

    def test_recovers_from_heavy_loss(self, sim):
        # A bottleneck buffer of ~4 MTUs forces drops with window 8.
        topo = small_dumbbell(sim, data_capacity_bytes=4 * 1538)
        flow = FixedWindowFlow(topo.senders[0], topo.receivers[0], 300_000)
        sim.run(until=SEC)
        assert flow.completed
        assert flow.bytes_delivered == 300_000
        assert flow.data_drops > 0
        assert flow.retransmissions > 0

    def test_two_flows_share_and_complete(self, sim):
        topo = small_dumbbell(sim, n_pairs=2)
        flows = [FixedWindowFlow(s, r, 200_000)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=SEC)
        assert all(f.completed for f in flows)

    def test_persistent_flow_never_completes(self, sim):
        topo = small_dumbbell(sim)
        flow = FixedWindowFlow(topo.senders[0], topo.receivers[0], None)
        sim.run(until=5 * MS)
        assert not flow.completed
        assert flow.bytes_delivered > 0

    def test_stop_halts_transmission(self, sim):
        topo = small_dumbbell(sim)
        flow = FixedWindowFlow(topo.senders[0], topo.receivers[0], None)
        sim.run(until=1 * MS)
        flow.stop()
        delivered = flow.bytes_delivered
        sim.run(until=2 * MS)
        # In-flight packets may still land; no new windows are sent.
        assert flow.bytes_delivered - delivered < 20 * flow.MSS


class TestPacedWindow:
    def test_paced_flow_completes(self, sim):
        class Paced(FixedWindowFlow):
            paced = True

        topo = small_dumbbell(sim)
        flow = Paced(topo.senders[0], topo.receivers[0], 100_000)
        sim.run(until=SEC)
        assert flow.completed

    def test_pacing_spreads_packets(self):
        # Paced sender never bursts the whole window back-to-back.
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)

        class Paced(FixedWindowFlow):
            paced = True
            init_cwnd = 16.0

        arrivals = []
        flow = Paced(topo.senders[0], topo.receivers[0], None)
        original = flow._at_receiver

        def tap(pkt):
            arrivals.append(sim.now)
            original(pkt)

        flow._at_receiver = tap
        sim.run(until=2 * MS)
        flow.stop()
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        # With pacing at cwnd/srtt the typical gap exceeds serialization time.
        big_gaps = [g for g in gaps if g > 1_230_400]
        assert len(big_gaps) > len(gaps) * 0.3


class TestRateFlow:
    def test_completes_at_configured_rate(self, sim):
        topo = small_dumbbell(sim)
        flow = RateFlow(topo.senders[0], topo.receivers[0], 150_000,
                        initial_rate_bps=1 * GBPS)
        sim.run(until=SEC)
        assert flow.completed
        # 150 KB at 1 Gbps ~ 1.2 ms; allow handshake and overhead slack.
        assert 1.0 * MS < flow.fct_ps < 3 * MS

    def test_rate_changed_repaces(self, sim):
        topo = small_dumbbell(sim)
        flow = RateFlow(topo.senders[0], topo.receivers[0], 1_500_000,
                        initial_rate_bps=0.1 * GBPS)
        sim.run(until=2 * MS)
        flow.rate_bps = 9 * GBPS
        flow.rate_changed()
        sim.run(until=10 * MS)
        assert flow.completed

    def test_loss_recovery_under_overload(self, sim):
        # Two fixed-rate senders overdrive the shared bottleneck: drops at
        # the middle link (the local NIC backpressure cannot help there),
        # recovered by dupack/partial-ack repair.
        topo = small_dumbbell(sim, n_pairs=2)
        flows = [RateFlow(s, r, 500_000, initial_rate_bps=8 * GBPS)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=SEC)
        assert all(f.completed for f in flows)
        assert topo.net.total_data_drops() > 0
        assert sum(f.retransmissions for f in flows) > 0

    def test_nic_backpressure_prevents_local_drops(self, sim):
        # A sender pacing faster than its own NIC must stall, not drop.
        topo = small_dumbbell(sim, data_capacity_bytes=4 * 1538)
        flow = RateFlow(topo.senders[0], topo.receivers[0], 500_000,
                        initial_rate_bps=20 * GBPS)
        sim.run(until=SEC)
        assert flow.completed
        nic = topo.senders[0].nic
        assert nic.data_queue.stats.dropped == 0


def test_lossy_dumbbell_recovers_exactly_as_it_did_with_eager_rto_events():
    """Pins loss recovery across the move from ``cancel(); schedule()``
    pairs to :class:`repro.sim.engine.Timer`: random and periodic loss
    (dupacks, partial ACKs) plus a 30 ms blackout in which RTOs actually
    fire, back off 2-4-8-16 ms and re-hash the path.  The values were dumped
    at the last commit that scheduled one event per arm; they depend on
    every RTO firing at its exact ``(time, key)``."""
    sim = Simulator(seed=3)
    topo = small_dumbbell(sim, n_pairs=3, data_capacity_bytes=6 * 1538)
    flows = [
        FixedWindowFlow(topo.senders[0], topo.receivers[0], 400_000),
        FixedWindowFlow(topo.senders[1], topo.receivers[1], 250_000,
                        start_ps=50 * US),
        RateFlow(topo.senders[2], topo.receivers[2], 300_000,
                 initial_rate_bps=6 * GBPS),
    ]
    LossInjector(topo.bottleneck_fwd, probability=0.02)
    LossInjector(topo.bottleneck_rev, every_nth=11)
    sim.schedule_at(300 * US, setattr, topo.bottleneck_fwd, "up", False)
    sim.schedule_at(30 * MS, setattr, topo.bottleneck_fwd, "up", True)
    sim.run(until=SEC)
    assert [(f.retransmissions, f.finish_ps, f.path_rehashes, f.data_drops)
            for f in flows] == [
        (146, 55_327_322_108, 1, 49),
        (112, 48_875_278_908, 1, 44),
        (78, 114_205_509_246, 1, 70),
    ]
    assert sim.pending() == 0    # every timer disarmed, nothing left behind
