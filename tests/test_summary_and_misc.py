"""Tests for the summary report and assorted under-covered corners."""

import pytest

from repro.core import ExpressPassParams
from repro.net.classes import ClassifiedCreditQueues
from repro.net.host import HostDelayModel
from repro.net.packet import credit_packet
from repro.net.queues import DataQueue, TokenBucket
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, US, fmt_time
from repro.workloads import WEB_SEARCH


class TestSummary:
    def test_all_checks_pass(self):
        from repro.experiments.summary import run
        result = run(seed=1)
        assert result.meta["all_ok"], result.rows
        assert len(result.rows) >= 6

    def test_cli_summary(self, capsys):
        from repro.cli import main
        assert main(["run", "summary"]) == 0
        out = capsys.readouterr().out
        assert "Jain fairness" in out


class TestTokenBucketEdge:
    def test_start_empty(self):
        bucket = TokenBucket(8 * GBPS, burst_bytes=100, start_full=False)
        assert not bucket.try_consume(1, 0)
        assert bucket.try_consume(50, 50_000)  # 50 ns at 1 byte/ns

    def test_refill_is_monotonic(self):
        bucket = TokenBucket(8 * GBPS, burst_bytes=1000)
        bucket.try_consume(1000, 0)
        bucket.refill(100)
        first = bucket.tokens
        bucket.refill(50)  # time going backwards is ignored
        assert bucket.tokens == first


class TestRedValidation:
    def test_bad_red_parameters(self):
        q = DataQueue(10_000)
        with pytest.raises(ValueError):
            q.set_red_marking(100, 100, 0.5, None)
        with pytest.raises(ValueError):
            q.set_red_marking(0, 100, 0.0, None)

    def test_red_marks_everything_above_kmax(self):
        sim = Simulator(seed=1)
        q = DataQueue(100_000)
        q.set_red_marking(0, 1, 1.0, sim.rng("red"))
        from repro.net.packet import data_packet
        pkt = data_packet(0, 1, None, 1500, seq=0, ecn_capable=True)
        q.enqueue(pkt, 0)
        assert pkt.ecn_marked


class TestClassifiedHeadConsistency:
    def test_head_matches_next_dequeue(self):
        q = ClassifiedCreditQueues({0: 2, 1: 1}, capacity_pkts=10)

        class T:
            def __init__(self, c):
                self.credit_class = c

        for i in range(6):
            q.enqueue(credit_packet(2, 1, T(i % 2), i), 0)
        for _ in range(6):
            head = q.head()
            got = q.dequeue(0)
            assert got is head


class TestHostDelayEdge:
    def test_rebind_changes_stream(self):
        model = HostDelayModel()
        a = Simulator(seed=1)
        model.bind(a.rng("host-delay"))
        sample_a = model.sample()
        b = Simulator(seed=2)
        model.bind(b.rng("host-delay"))
        sample_b = model.sample()
        assert sample_a != sample_b  # astronomically unlikely to collide


class TestFmtTimeBoundaries:
    @pytest.mark.parametrize("value,expect", [
        (1, "1 ps"),
        (1_000, "1 ns"),
        (1_000_000, "1 us"),
        (1_000_000_000, "1 ms"),
        (1_000_000_000_000, "1 s"),
    ])
    def test_unit_selection(self, value, expect):
        assert fmt_time(value) == expect


class TestDistributionIntrospection:
    def test_bucket_probabilities_sum(self):
        assert sum(WEB_SEARCH.bucket_probabilities()) == pytest.approx(1.0)

    def test_repr_mentions_mean(self):
        assert "KB" in repr(WEB_SEARCH)

    def test_mismatched_probabilities_rejected(self):
        from repro.workloads.distributions import (
            FlowSizeDistribution, _Bucket)
        with pytest.raises(ValueError):
            FlowSizeDistribution("bad", [_Bucket(0.5, 64, 1000, None)], 100)


class TestKnobCensus:
    def test_readme_knob_table_lists_exactly_the_env_names_in_use(self):
        """README's "every ``REPRO_*`` variable, in one place" table and
        the names the code reads cannot drift apart."""
        import pathlib
        import re

        root = pathlib.Path(__file__).resolve().parent.parent
        used = {"REPRO_SCALE"}      # read by benchmarks/conftest.py
        for path in (root / "src").rglob("*.py"):
            used.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert "REPRO_SCALE" in (root / "benchmarks/conftest.py").read_text()
        documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|",
                                    (root / "README.md").read_text(), re.M))
        assert documented == used
        assert len(documented) == 19
