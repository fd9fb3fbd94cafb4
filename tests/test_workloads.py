"""Tests for flow-size distributions (Table 2) and traffic generators."""

import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics.fct import bucket_of
from repro.sim.units import KB, MB, SEC
from repro.workloads import (
    CACHE_FOLLOWER,
    DATA_MINING,
    WEB_SEARCH,
    WEB_SERVER,
    WORKLOADS,
    FlowSpec,
    incast_specs,
    poisson_specs,
    shuffle_specs,
)
from repro.workloads.generators import poisson_arrival_rate_fps


class TestDistributionMeans:
    """The reconstruction must hit the paper's published averages."""

    @pytest.mark.parametrize("dist,target", [
        (DATA_MINING, 7.41 * MB),
        (WEB_SEARCH, 1.6 * MB),
        (CACHE_FOLLOWER, 701 * KB),
        (WEB_SERVER, 64 * KB),
    ])
    def test_analytic_mean_matches_target(self, dist, target):
        assert dist.mean_bytes == pytest.approx(target, rel=0.02)

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_sampled_mean_matches_analytic(self, name):
        dist = WORKLOADS[name]
        rng = random.Random(123)
        mean = statistics.mean(dist.sample(rng) for _ in range(150_000))
        assert mean == pytest.approx(dist.mean_bytes, rel=0.12)


class TestBucketMix:
    def test_web_server_has_no_xl(self):
        rng = random.Random(5)
        assert all(WEB_SERVER.sample(rng) < 30 * MB for _ in range(20_000))
        assert max(WEB_SERVER.sample(rng) for _ in range(50_000)) < 1 * MB + 1

    def test_data_mining_s_fraction(self):
        rng = random.Random(5)
        samples = [DATA_MINING.sample(rng) for _ in range(50_000)]
        s_fraction = sum(1 for x in samples if bucket_of(x) == "S") / len(samples)
        assert s_fraction == pytest.approx(0.78, abs=0.02)

    def test_web_search_bucket_fractions_normalized(self):
        probs = WEB_SEARCH.bucket_probabilities()
        assert sum(probs) == pytest.approx(1.0)

    def test_data_mining_respects_cap(self):
        rng = random.Random(9)
        assert max(DATA_MINING.sample(rng) for _ in range(100_000)) <= 1000 * MB


class TestPoissonSpecs:
    def test_count_and_endpoints(self):
        rng = random.Random(1)
        specs = poisson_specs(rng, WEB_SERVER, 500, n_hosts=10,
                              arrival_rate_fps=1e5)
        assert len(specs) == 500
        assert all(0 <= s.src < 10 and 0 <= s.dst < 10 for s in specs)
        assert all(s.src != s.dst for s in specs)

    def test_arrival_times_increase(self):
        rng = random.Random(1)
        specs = poisson_specs(rng, WEB_SERVER, 200, 10, 1e5)
        starts = [s.start_ps for s in specs]
        assert starts == sorted(starts)

    def test_mean_interarrival_matches_rate(self):
        rng = random.Random(1)
        rate = 2e5
        specs = poisson_specs(rng, WEB_SERVER, 5000, 10, rate)
        gaps = [(b.start_ps - a.start_ps) / SEC
                for a, b in zip(specs, specs[1:])]
        assert statistics.mean(gaps) == pytest.approx(1 / rate, rel=0.1)

    def test_requires_two_hosts(self):
        with pytest.raises(ValueError):
            poisson_specs(random.Random(1), WEB_SERVER, 10, 1, 1e5)

    def test_load_to_rate_conversion(self):
        # load * capacity / (mean_size * 8 * cross_fraction)
        rate = poisson_arrival_rate_fps(0.6, 100e9, 1e6, cross_fraction=0.5)
        assert rate == pytest.approx(0.6 * 100e9 / (1e6 * 8 * 0.5))

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            poisson_arrival_rate_fps(0, 1e9, 1e6)


class TestIncastSpecs:
    def test_all_target_receiver(self):
        specs = incast_specs(8, receiver=0, bytes_per_sender=1000, n_hosts=9)
        assert len(specs) == 8
        assert all(s.dst == 0 for s in specs)
        assert all(s.src != 0 for s in specs)

    def test_workers_wrap_when_fan_in_exceeds_hosts(self):
        specs = incast_specs(20, receiver=0, bytes_per_sender=1000, n_hosts=5)
        assert len(specs) == 20
        assert all(1 <= s.src < 5 for s in specs)

    def test_jitter_spreads_starts(self):
        rng = random.Random(1)
        specs = incast_specs(16, 0, 1000, jitter_ps=10_000, rng=rng, n_hosts=17)
        assert len({s.start_ps for s in specs}) > 1


class TestShuffleSpecs:
    def test_flow_count(self):
        specs = shuffle_specs(n_hosts=4, tasks_per_host=2, bytes_per_flow=1000)
        # hosts*(hosts-1)*tasks^2
        assert len(specs) == 4 * 3 * 4

    def test_all_pairs_covered(self):
        specs = shuffle_specs(3, 1, 1000)
        pairs = {(s.src, s.dst) for s in specs}
        assert pairs == {(a, b) for a in range(3) for b in range(3) if a != b}


@settings(deadline=None, max_examples=25)
@given(name=st.sampled_from(list(WORKLOADS)), seed=st.integers(0, 2**31))
def test_samples_always_in_support(name, seed):
    dist = WORKLOADS[name]
    rng = random.Random(seed)
    for _ in range(200):
        size = dist.sample(rng)
        assert 64 <= size <= 1000 * MB
