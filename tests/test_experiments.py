"""Smoke tests for the experiment harness (scaled-down configurations)."""

import pytest

from repro.core import ExpressPassParams
from repro.experiments import format_table, get_harness
from repro.experiments.runner import ExperimentResult
from repro.sim.units import GBPS, MS, US


class TestRunner:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            get_harness("quic", 10 * GBPS)

    def test_dctcp_harness_sets_ecn(self):
        from repro.topology import LinkSpec
        harness = get_harness("dctcp", 10 * GBPS)
        spec = harness.adapt_link(LinkSpec())
        assert spec.ecn_threshold_bytes == 65 * 1538

    def test_expresspass_harness_leaves_link_alone(self):
        from repro.topology import LinkSpec
        harness = get_harness("expresspass", 10 * GBPS)
        spec = harness.adapt_link(LinkSpec())
        assert spec.ecn_threshold_bytes is None

    def test_format_table_renders(self):
        result = ExperimentResult("demo", ["a", "b"],
                                  [{"a": 1, "b": 2.5}, {"a": 3, "b": None}])
        text = format_table(result)
        assert "demo" in text and "2.5" in text

    def test_result_column_access(self):
        result = ExperimentResult("demo", ["a"], [{"a": 1}, {"a": 2}])
        assert result.column("a") == [1, 2]


class TestFig12Model:
    def test_rates_converge_and_d_matches(self):
        from repro.experiments.fig12_steady_state import run, simulate_model
        result = run(n_flows=4, periods=150, w_mins=(0.01,))
        row = result.rows[0]
        assert row["final_rate_spread"] < 0.01
        assert row["final_amplitude"] == pytest.approx(
            row["predicted_D_star"], rel=0.2)
        assert row["final_w"] == 0.01

    def test_model_trajectories_shape(self):
        from repro.experiments.fig12_steady_state import simulate_model
        out = simulate_model(3, 50)
        assert len(out["rates"]) == 50
        assert len(out["rates"][0]) == 3


class TestTable1:
    def test_rows_cover_all_configs(self):
        from repro.experiments.table1_buffer_bounds import run
        result = run()
        assert len(result.rows) == 4
        assert all(row["tor_down_kb"] > row["tor_up_kb"]
                   for row in result.rows)

    def test_fig5_rows(self):
        from repro.experiments.table1_buffer_bounds import run_fig5
        result = run_fig5()
        assert len(result.rows) == 6
        soft = [r for r in result.rows if r["setting"].startswith("(a)")]
        hw = [r for r in result.rows if r["setting"].startswith("(b)")]
        for s, h in zip(soft, hw):
            assert h["total_mb"] < s["total_mb"]


class TestFig14:
    def test_host_delay_quantiles(self):
        from repro.experiments.fig14_host_jitter import run_host_delay
        result = run_host_delay(samples=20_000)
        by_pct = {row["percentile"]: row["delay_us"] for row in result.rows}
        assert by_pct[50] == pytest.approx(0.38, rel=0.15)
        assert by_pct[99.99] == pytest.approx(6.2, rel=0.25)

    def test_inter_credit_gap_median_near_slot(self):
        from repro.experiments.fig14_host_jitter import run_inter_credit_gap
        result = run_inter_credit_gap(duration_ps=2 * MS)
        by_pct = {row["percentile"]: row["gap_us"] for row in result.rows}
        assert by_pct[50] == pytest.approx(result.meta["ideal_gap_us"], rel=0.1)


class TestSimulationExperimentsSmoke:
    """Tiny configurations: check plumbing, not statistics."""

    def test_fig01_point(self):
        from repro.experiments.fig01_queue_buildup import run
        row, = run(protocols=("expresspass",), fan_ins=(8,), n_hosts=5,
                   duration_ps=3 * MS).rows
        assert row["queue_pkts_max"] >= 0
        assert row["data_drops"] == 0

    def test_fig09_point(self):
        from repro.experiments.fig09_credit_queue import run_point
        row = run_point(4, 8, warmup_ps=3 * MS, measure_ps=5 * MS)
        assert 0 <= row["under_utilization"] < 0.5

    def test_fig15_point(self):
        from repro.scenarios.cells import run_persistent
        row = run_persistent("expresspass", 4, warmup_ps=5 * MS,
                             measure_ps=5 * MS)
        # 5 ms is a short measurement window; the full bench uses 50 ms.
        assert row["fairness"] > 0.8
        assert row["utilization"] > 0.8

    def test_fig13_timeseries(self):
        from repro.experiments.fig13_convergence_behavior import run
        result = run("expresspass", n_flows=2, stagger_ps=2 * MS,
                     sample_ps=1 * MS)
        assert len(result.rows) > 3
        assert "queue_kb" in result.columns[-1]

    def test_fig17_small_shuffle(self):
        from repro.experiments.fig17_shuffle import run_point
        row = run_point("expresspass", n_hosts=4, tasks_per_host=1,
                        flow_bytes=50_000)
        assert row["completed"] == row["flows"] == 12

    def test_realistic_smoke(self):
        from repro.experiments.realistic import run_realistic
        result = run_realistic("expresspass", "web_server", 0.4, n_flows=60,
                               ep_params=ExpressPassParams(rtt_hint_ps=60 * US))
        assert result.completed == 60
        assert result.data_drops == 0

    def test_realistic_rejects_unknown_workload(self):
        from repro.experiments.realistic import run_realistic
        with pytest.raises(ValueError):
            run_realistic("expresspass", "bogus")


class TestRdmaComparison:
    def test_smoke(self):
        from repro.experiments.rdma_comparison import run
        row, = run(protocols=("expresspass",), fan_in=4, response_kb=16).rows
        assert row["completed"] == 4
        assert row["data_drops"] == 0
        assert row["pfc_pauses"] == 0

    def test_dcqcn_point_uses_pfc(self):
        from repro.experiments.rdma_comparison import run
        row, = run(protocols=("dcqcn",), fan_in=4, response_kb=64).rows
        assert row["completed"] == 4
        assert row["data_drops"] == 0
        assert row["pfc_pauses"] > 0


class TestAblations:
    def test_opportunistic_ablation_smoke(self):
        from repro.experiments.ablations import run_opportunistic_ablation
        result = run_opportunistic_ablation(burst_sizes=(0, 8), n_flows=40)
        assert len(result.rows) == 2
        assert all(r["completed"] == 40 for r in result.rows)


class TestClosedLoopIncast:
    def test_smoke(self):
        from repro.experiments.incast_closed_loop import run
        row, = run(protocols=("expresspass",), fan_ins=(6,), n_hosts=7,
                   rounds=5).rows
        assert row["rounds_done"] == 5
        assert row["data_drops"] == 0
        assert row["downlink_queue_max_pkts"] < 4


class TestParkingLotAndMultiBottleneck:
    def test_parking_lot_point_smoke(self):
        from repro.experiments.fig10_parking_lot import run
        naive, row = run(counts=(2,), warmup_ps=5 * MS,
                         measure_ps=5 * MS).rows
        assert 0.5 < row["min_link_utilization"] <= 1.05
        assert (naive["mode"], row["mode"]) == ("naive", "feedback")

    def test_parking_lot_naive_underutilizes(self):
        from repro.experiments.fig10_parking_lot import run
        naive, fb = run(counts=(3,), warmup_ps=5 * MS, measure_ps=8 * MS).rows
        assert naive["min_link_utilization"] < fb["min_link_utilization"]

    def test_multibottleneck_point_smoke(self):
        from repro.experiments.fig11_multibottleneck import run
        _naive, row = run(counts=(2,), warmup_ps=5 * MS,
                          measure_ps=8 * MS).rows
        assert row["mode"] == "feedback"
        assert row["flow0_gbps"] > 0
        assert row["maxmin_ideal_gbps"] == pytest.approx(
            10 * (1538 / 1626) * (1500 / 1538) / 3, rel=0.01)
