"""Edge-case tests across modules: combined port attachments, harness
parameterization, and error paths."""

import pytest

from repro.core import ExpressPassFlow, ExpressPassParams
from repro.experiments.runner import get_harness
from repro.net.fault import LossInjector
from repro.net.pfc import install_pfc
from repro.net.trace import PortTracer
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, SEC, US
from repro.transport.dcqcn import install_dcqcn_marking
from repro.transport.hull import install_phantom_queues
from repro.transport.rcp import install_rcp

from tests.conftest import small_dumbbell

PARAMS = ExpressPassParams(rtt_hint_ps=40 * US)


class TestCombinedPortAttachments:
    def test_all_attachments_coexist(self):
        """Phantom + RCP + PFC + tracer + injector on one port: nothing
        interferes with basic forwarding."""
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        port = topo.bottleneck_fwd
        install_phantom_queues([port])
        install_rcp(sim, [port], 30 * US)
        install_pfc(sim, [port])
        tracer = PortTracer(port)
        injector = LossInjector(port, every_nth=50)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0], 200_000,
                               params=PARAMS)
        sim.run(until=SEC)
        assert flow.completed
        assert tracer.count("DATA") >= flow.total_segments
        assert injector.seen > 0

    def test_pfc_and_expresspass_coexist(self):
        """PFC on an ExpressPass fabric never triggers: queues stay tiny."""
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, n_pairs=4)
        pfc = install_pfc(sim, topo.net.ports, xoff_bytes=50_000, xon_bytes=25_000)
        flows = [ExpressPassFlow(s, r, None, params=PARAMS)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=20 * MS)
        for f in flows:
            f.stop()
        assert pfc.pauses_sent == 0  # credits never let the queue near XOFF


class TestHarnessParameters:
    def test_harness_flow_override_kwargs(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        harness = get_harness("expresspass", 10 * GBPS, 40 * US)
        custom = ExpressPassParams(rtt_hint_ps=40 * US, jitter=0.0,
                                   randomize_credit_size=False)
        flow = harness.flow(topo.senders[0], topo.receivers[0], 10_000,
                            params=custom)
        assert flow.params.jitter == 0.0
        flow.stop()

    def test_min_rto_propagates_to_window_flows(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        harness = get_harness("dctcp", 10 * GBPS, 40 * US, min_rto_ps=7 * MS)
        flow = harness.flow(topo.senders[0], topo.receivers[0], 10_000)
        assert flow._min_rto_ps == 7 * MS
        flow.stop()

    def test_hull_threshold_scales_with_rate(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim, rate=40 * GBPS)
        harness = get_harness("hull", 40 * GBPS, 40 * US)
        harness.install(sim, topo.net)
        assert topo.bottleneck_fwd.phantom.mark_threshold_bytes == 12_000

    def test_dcqcn_marking_install(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        install_dcqcn_marking(topo.net.ports, kmin_bytes=1000,
                              kmax_bytes=2000, pmax=0.5, sim=sim)
        assert topo.bottleneck_fwd.data_queue._red_kmin == 1000


class TestErrorPaths:
    def test_switch_without_route_raises(self):
        from repro.net.packet import data_packet
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        left = topo.net.switches[0]
        pkt = data_packet(0, 9999, None, 100, seq=0)
        with pytest.raises(RuntimeError):
            left.receive(pkt, None)

    def test_flow_same_endpoints_rejected(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        with pytest.raises(ValueError):
            ExpressPassFlow(topo.senders[0], topo.senders[0], 100)

    def test_flow_zero_size_rejected(self):
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        with pytest.raises(ValueError):
            ExpressPassFlow(topo.senders[0], topo.receivers[0], 0)

    def test_tracer_double_attach_chains(self):
        # Tracers compose: a second tracer on the same port chains the
        # first instead of rejecting or silently replacing it.
        sim = Simulator(seed=1)
        topo = small_dumbbell(sim)
        first = PortTracer(topo.bottleneck_fwd)
        second = PortTracer(topo.bottleneck_fwd)
        ExpressPassFlow(topo.senders[0], topo.receivers[0], 5_000)
        sim.run(until=1_000_000_000_000)
        assert first.records
        assert first.records == second.records


class TestEngineInterplay:
    def test_max_events_with_until(self):
        sim = Simulator(seed=0)
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        done = sim.run(until=5, max_events=3)
        assert done == 3
        assert sim.now <= 5

    def test_max_events_zero_fires_nothing(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(7, fired.append, 1)
        assert sim.run(max_events=0) == 0
        assert sim.run(until=100, max_events=0) == 0
        assert sim.now == 0 and fired == [] and sim.pending() == 1

    def test_run_after_run_continues(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(10, fired.append, 1)
        sim.schedule(20, fired.append, 2)
        sim.run(until=15)
        sim.run(until=25)
        assert fired == [1, 2]

    def test_rng_stream_creation_order_irrelevant(self):
        a = Simulator(seed=3)
        _ = a.rng("x")
        va = a.rng("y").random()
        b = Simulator(seed=3)
        vb = b.rng("y").random()  # "y" created first here
        assert va == vb
