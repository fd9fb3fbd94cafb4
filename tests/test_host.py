"""Tests for hosts and the host delay model."""

import pytest

from repro.net.host import Host, HostDelayModel
from repro.sim.engine import Simulator
from repro.sim.units import US


class TestHostDelayModel:
    def test_constant_model(self):
        model = HostDelayModel.constant(5 * US)
        assert model.sample() == 5 * US
        assert model.spread_ps == 5 * US

    def test_default_matches_paper_median(self):
        sim = Simulator(seed=11)
        model = HostDelayModel()
        model.bind(sim.rng("host-delay"))
        samples = sorted(model.sample() for _ in range(20_000))
        median = samples[len(samples) // 2]
        assert 0.30 * US < median < 0.46 * US

    def test_tail_clipped_at_max(self):
        sim = Simulator(seed=11)
        model = HostDelayModel()
        model.bind(sim.rng("host-delay"))
        assert max(model.sample() for _ in range(50_000)) <= model.max_delay_ps

    def test_without_rng_returns_median(self):
        model = HostDelayModel()
        assert model.sample() == model.median_ps

    def test_validation(self):
        with pytest.raises(ValueError):
            HostDelayModel(median_ps=0)
        with pytest.raises(ValueError):
            HostDelayModel(median_ps=100, p9999_ps=100)


class TestHost:
    def test_nic_requires_single_port(self):
        sim = Simulator(seed=0)
        host = Host(sim, 0)
        with pytest.raises(RuntimeError, match="has 0 ports"):
            _ = host.nic

    def test_nic_follows_attach_port(self):
        from repro.net.link import connect

        sim = Simulator(seed=0)
        host, a, b = Host(sim, 0), Host(sim, 1), Host(sim, 2)
        port, _ = connect(sim, host, a, 10**10, 0, 10_000)
        assert host.nic is port
        connect(sim, host, b, 10**10, 0, 10_000)  # dual-homed: ambiguous
        with pytest.raises(RuntimeError, match="has 2 ports"):
            _ = host.nic

    def test_misrouted_packet_raises(self):
        from repro.net.packet import data_packet
        from repro.topology import single_switch

        sim = Simulator(seed=0)
        topo = single_switch(sim, 2)
        pkt = data_packet(topo.hosts[0].id, 999, None, 10, seq=0)
        with pytest.raises(RuntimeError):
            topo.hosts[1].receive(pkt, None)
