"""Tests for the closed-loop partition/aggregate application."""

import pytest

from repro.apps import PartitionAggregate
from repro.experiments.runner import get_harness
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, SEC, US

from tests.conftest import small_star

EP_KW = dict(base_rtt_ps=20 * US)


def harness(name="expresspass"):
    return get_harness(name, 10 * GBPS, **EP_KW)


class TestPartitionAggregate:
    def test_round_barrier(self):
        sim = Simulator(seed=1)
        topo = small_star(sim, 9)
        app = PartitionAggregate(sim, harness(), topo.hosts[0],
                                 topo.hosts[1:], rounds=4)
        sim.run(until=SEC)
        assert app.completed_rounds == 4
        assert len(app.round_latencies_ps) == 4

    def test_no_data_loss_under_wave_incast(self):
        sim = Simulator(seed=1)
        topo = small_star(sim, 13)
        app = PartitionAggregate(sim, harness(), topo.hosts[0],
                                 topo.hosts[1:], rounds=10,
                                 response_bytes=30_000)
        sim.run(until=2 * SEC)
        assert app.completed_rounds == 10
        assert topo.net.total_data_drops() == 0

    def test_requires_workers(self):
        sim = Simulator(seed=1)
        topo = small_star(sim, 2)
        with pytest.raises(ValueError):
            PartitionAggregate(sim, harness(), topo.hosts[0], [])

    def test_wave_latency_grows_with_fanin(self):
        latencies = []
        for n in (4, 12):
            sim = Simulator(seed=1)
            topo = small_star(sim, n + 1)
            app = PartitionAggregate(sim, harness(), topo.hosts[0],
                                     topo.hosts[1:], rounds=5,
                                     response_bytes=50_000)
            sim.run(until=2 * SEC)
            assert app.completed_rounds == 5
            latencies.append(sum(app.round_latencies_ps) / 5)
        assert latencies[1] > latencies[0]
