"""Tests for ECMP routing, symmetric hashing, and path symmetry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import Packet, PacketKind, data_packet
from repro.net.routing import asymmetric_flow_hash, symmetric_flow_hash
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, US
from repro.topology import LinkSpec, fat_tree, oversubscribed_clos
from repro.transport.ideal import compute_path_ports
from repro.core import ExpressPassFlow, ExpressPassParams


class TestSymmetricHash:
    def test_direction_independent(self):
        fwd = symmetric_flow_hash(1, 2, 100, 200)
        rev = symmetric_flow_hash(2, 1, 200, 100)
        assert fwd == rev

    def test_distinct_flows_differ(self):
        a = symmetric_flow_hash(1, 2, 100, 200)
        b = symmetric_flow_hash(1, 2, 101, 200)
        assert a != b

    def test_asymmetric_hash_depends_on_direction(self):
        fwd = asymmetric_flow_hash(1, 2, 100, 200)
        rev = asymmetric_flow_hash(2, 1, 200, 100)
        assert fwd != rev  # CRC collision here would be astonishing

    @given(st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 65535), st.integers(0, 65535))
    def test_symmetry_property(self, src, dst, sport, dport):
        assert (symmetric_flow_hash(src, dst, sport, dport)
                == symmetric_flow_hash(dst, src, dport, sport))

    def test_stable_across_processes(self):
        # CRC32-based: must never change, or saved results become stale.
        assert symmetric_flow_hash(1, 2, 3, 4) == symmetric_flow_hash(1, 2, 3, 4)


class TestEcmpTables:
    def test_fat_tree_tor_has_equal_cost_uplinks(self):
        sim = Simulator(seed=0)
        ft = fat_tree(sim, k=4)
        tor = ft.tors[0]
        local_hosts = {p for p in tor.table if len(tor.table[p]) == 1}
        # Destinations outside the rack have k/2 = 2 uplink choices.
        remote = [d for d in tor.table if d not in local_hosts]
        assert remote
        for dst in remote:
            assert len(tor.table[dst]) == 2

    def test_next_hop_lists_sorted(self):
        sim = Simulator(seed=0)
        ft = fat_tree(sim, k=4)
        for sw in ft.net.switches:
            for hops in sw.table.values():
                assert hops == sorted(hops)

    def test_every_switch_routes_every_host(self):
        sim = Simulator(seed=0)
        ft = fat_tree(sim, k=4)
        for sw in ft.net.switches:
            for host in ft.hosts:
                assert host.id in sw.table


def _trace_paths(topo, src, dst):
    """Deliver one traced data packet and one traced credit; return hop lists."""
    sim = topo.net.sim
    flow = ExpressPassFlow(src, dst, None,
                           params=ExpressPassParams(rtt_hint_ps=50 * US))
    data_pkt = Packet(PacketKind.DATA, src.id, dst.id, flow=flow,
                      payload_bytes=100, seq=0)
    data_pkt.hops = []
    credit_pkt = Packet(PacketKind.CREDIT, dst.id, src.id, flow=flow,
                        credit_seq=0)
    credit_pkt.hops = []
    flow.stop()
    src.send(data_pkt)
    dst.send(credit_pkt)
    sim.run()
    # Drop the terminal host hop: data ends at dst, credit at src; only the
    # switch path must mirror.
    return data_pkt.hops[:-1], credit_pkt.hops[:-1]


class TestPathSymmetry:
    @pytest.mark.parametrize("k", [4, 8])
    def test_fat_tree_credit_path_mirrors_data_path(self, k):
        sim = Simulator(seed=3)
        ft = fat_tree(sim, k=k)
        # Pick inter-pod pairs: hosts 0 and the last one.
        src, dst = ft.hosts[0], ft.hosts[-1]
        data_hops, credit_hops = _trace_paths(ft, src, dst)
        assert data_hops == list(reversed(credit_hops))

    def test_clos_symmetry_many_pairs(self):
        sim = Simulator(seed=5)
        clos = oversubscribed_clos(sim)
        rng = sim.rng("pairs")
        hosts = clos.hosts
        for _ in range(10):
            a, b = rng.sample(range(len(hosts)), 2)
            data_hops, credit_hops = _trace_paths(clos, hosts[a], hosts[b])
            assert data_hops == list(reversed(credit_hops))

    def test_flowless_packets_cross_ecmp_switches_on_a_shared_path(self):
        """A probe with no flow has no ``path_hash`` to ask: switches hash
        its endpoints, direction-independently (this crashed with
        AttributeError at any switch with more than one next hop)."""
        sim = Simulator(seed=3)
        ft = fat_tree(sim, k=4)
        a, b = ft.hosts[0], ft.hosts[-1]    # inter-pod: two ECMP stages
        probe = data_packet(a.id, b.id, None, 1000, seq=0)
        reply = data_packet(b.id, a.id, None, 1000, seq=0)
        probe.hops, reply.hops = [], []
        assert a.send(probe) and b.send(reply)
        sim.run()
        assert probe.hops[-1] == b.id and reply.hops[-1] == a.id
        assert len(probe.hops) == 6         # 5 switches, then the host
        assert probe.hops[:-1] == list(reversed(reply.hops[:-1]))

    def test_asymmetric_mode_can_split_paths(self):
        # With direction-dependent hashing, at least one inter-pod pair takes
        # mirrored-path-breaking routes (the ablation of §3.1).
        sim = Simulator(seed=7)
        ft = fat_tree(sim, k=4)
        broke = 0
        for i in range(8):
            src, dst = ft.hosts[i], ft.hosts[-1 - i]
            flow = ExpressPassFlow(src, dst, None, symmetric_routing=False,
                                   params=ExpressPassParams(rtt_hint_ps=50 * US))
            flow.stop()
            d = Packet(PacketKind.DATA, src.id, dst.id, flow=flow,
                       payload_bytes=100, seq=0)
            d.hops = []
            c = Packet(PacketKind.CREDIT, dst.id, src.id, flow=flow, credit_seq=0)
            c.hops = []
            src.send(d)
            dst.send(c)
            sim.run()
            if d.hops != list(reversed(c.hops)):
                broke += 1
        assert broke > 0


class TestComputePathPorts:
    def test_path_matches_traced_packet(self):
        sim = Simulator(seed=1)
        ft = fat_tree(sim, k=4)
        src, dst = ft.hosts[0], ft.hosts[-1]
        flow = ExpressPassFlow(src, dst, None,
                               params=ExpressPassParams(rtt_hint_ps=50 * US))
        flow.stop()
        ports = compute_path_ports(flow)
        pkt = Packet(PacketKind.DATA, src.id, dst.id, flow=flow,
                     payload_bytes=100, seq=0)
        pkt.hops = []
        src.send(pkt)
        sim.run()
        walked_nodes = [p.peer.id for p in ports]
        assert pkt.hops == walked_nodes

    def test_intra_rack_is_two_hops(self):
        sim = Simulator(seed=1)
        ft = fat_tree(sim, k=4)
        src, dst = ft.hosts[0], ft.hosts[1]  # same ToR
        flow = ExpressPassFlow(src, dst, None,
                               params=ExpressPassParams(rtt_hint_ps=50 * US))
        flow.stop()
        assert len(compute_path_ports(flow)) == 2  # NIC -> ToR -> host
