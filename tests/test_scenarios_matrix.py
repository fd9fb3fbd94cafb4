"""End-to-end matrix runs and the spec-vs-frozen-legacy-rows pins."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro import scenarios
from repro.scenarios import Scenario, SpecError, run_matrix

# Short windows keep these under a few seconds each while still running the
# real simulator end to end.
_WARM = 2_000_000_000  # 2 ms
_MEAS = 2_000_000_000


def tiny_spec(**over) -> dict:
    spec = {
        "schema": "repro.scenarios/v1",
        "name": "tiny",
        "topology": {"kind": "dumbbell"},
        "workload": {"kind": "persistent", "n_flows": 2},
        "transport": {"protocol": "expresspass"},
        "timing": {"warmup_ps": _WARM, "measure_ps": _MEAS},
        "sweep": {"transport.protocol": ["expresspass", "dctcp"]},
        "report": {"compare": "transport.protocol"},
    }
    spec.update(over)
    return spec


class TestRunMatrix:
    def test_end_to_end_report(self, tmp_path):
        out = run_matrix(Scenario.from_dict(tiny_spec()))
        assert out.ok and not out.failed
        assert len(out.results) == 2
        rep = out.report
        assert {g["protocol"] for g in rep.groups} == \
            {"expresspass", "dctcp"}
        assert sorted(g["rank"] for g in rep.groups) == [1, 2]
        # Every cell row carries the metrics the persistent runner emits.
        for row in rep.rows:
            assert {"utilization", "fairness", "max_queue_kb"} <= set(row)
        # The report serializes and validates against its own schema.
        dest = tmp_path / "report.jsonl"
        scenarios.write_report_jsonl(dest, rep)
        stats = scenarios.validate_report_jsonl(dest)
        assert stats["records"]["cell"] == 2

    def test_rerun_hits_cache(self):
        # The odd prop delay keeps these cells distinct from every other
        # test's — the cache key hashes fn+kwargs, not the scenario name.
        spec = tiny_spec(name="tiny-cache",
                         topology={"kind": "dumbbell",
                                   "prop_delay_ps": 5_000_000})
        first = run_matrix(Scenario.from_dict(spec))
        assert not any(r.cached for r in first.results)
        second = run_matrix(Scenario.from_dict(spec))
        assert all(r.cached for r in second.results)
        assert [r.value for r in second.results] == \
            [r.value for r in first.results]

    def test_filter_narrows_and_empty_filter_raises(self):
        s = Scenario.from_dict(tiny_spec(name="tiny-filter"))
        out = run_matrix(s, cell_filter="protocol=dctcp")
        assert len(out.results) == 1
        assert out.results[0].value["protocol"] == "dctcp"
        with pytest.raises(SpecError) as exc:
            run_matrix(s, cell_filter="protocol=quic")
        assert exc.value.errors[0][0] == "<filter>"

    def test_values_keeps_good_rows_and_refuses_an_all_failed_matrix(self):
        from repro.runtime import SweepError, TaskResult
        good, bad = TaskResult(0, "a", value={"x": 1}), \
            TaskResult(1, "b", error="boom")
        partly = scenarios.MatrixOutcome(None, [good, bad], None)
        assert partly.values() == [{"x": 1}]
        with pytest.raises(SweepError) as info:
            scenarios.MatrixOutcome(None, [bad, bad], None).values()
        assert len(info.value.failures) == 2

    def test_seeds_override_is_innermost(self):
        s = Scenario.from_dict(tiny_spec(name="tiny-seeds"))
        out = run_matrix(s, seeds=[3, 4], cell_filter="protocol=expresspass")
        assert [r.value["seed"] for r in out.results] == [3, 4]


def _legacy_rows(fig: str, case: str) -> dict:
    """Rows the hand-written runners produced at the commit that deleted
    them (``tests/golden/fig1{5,9}_legacy_rows.json``).  Frozen data: a
    mismatch means the spec path drifted — never regenerate these."""
    path = pathlib.Path(__file__).parent / "golden" / f"{fig}_legacy_rows.json"
    return json.loads(path.read_text())[case]


class TestBitIdentity:
    """The spec-compiled fig15/fig19 runners must reproduce the deleted
    hand-written path exactly — same floats, same row order."""

    def test_fig15_spec_matches_legacy(self):
        from repro.experiments import fig15_flow_scalability as f15

        legacy = _legacy_rows("fig15", "default")
        res = f15.run(protocols=("expresspass", "dctcp"), flow_counts=(2, 3),
                      warmup_ps=_WARM, measure_ps=_MEAS)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    def test_fig15_explicit_ep_params_falls_back_to_legacy(self):
        """An explicit params object bypasses the spec compiler (specs name
        profiles only) yet lands on the same cell runner and rows."""
        from repro.core.params import ExpressPassParams
        from repro.experiments import fig15_flow_scalability as f15

        legacy = _legacy_rows("fig15", "w_init_0.125")
        res = f15.run(protocols=("expresspass",), flow_counts=(2,),
                      warmup_ps=_WARM, measure_ps=_MEAS,
                      ep_params=ExpressPassParams(w_init=0.125))
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    def test_fig19_spec_matches_legacy(self):
        from repro.experiments import fig19_realistic_fct as f19

        legacy = _legacy_rows("fig19", "default")
        res = f19.run(protocols=("expresspass", "dctcp"), n_flows=30,
                      drain_ps=50_000_000_000)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]


class TestChaosCells:
    def test_fabric_chaos_cell_reports_recovery(self):
        spec = {
            "schema": "repro.scenarios/v1",
            "name": "chaos-cell",
            "topology": {"kind": "fat_tree", "params": {"k": 4}},
            "workload": {"kind": "persistent", "n_flows": 4},
            "transport": {"protocol": "expresspass"},
            "timing": {"warmup_ps": 2_000_000_000,
                       "measure_ps": 12_000_000_000,
                       "bin_ps": 500_000_000},
            "chaos": {"scenario": "link-down",
                      "fault_ps": 4_000_000_000,
                      "duration_ps": 3_000_000_000},
        }
        # "link-down" is not a named scenario — assert the vocabulary error
        # first, then run the real one.
        with pytest.raises(SpecError):
            Scenario.from_dict(spec)
        spec["chaos"]["scenario"] = "link-flap"
        out = run_matrix(Scenario.from_dict(spec))
        assert out.ok
        row = out.report.rows[0]
        assert row["faults"] >= 1
        assert row["pre_gbps"] > 0
        # recovered_frac is post/pre goodput, so it can overshoot 1.0 a bit.
        assert row["recovered_frac"] > 0.0
        # The columns `repro chaos` gates on ride only on cells with a plan.
        extra = {"post_gbps", "stalled", "rehashes", "recoveries"}
        assert extra <= set(row)
        assert row["stalled"] == 0
        del spec["chaos"]
        spec["timing"]["measure_ps"] = 2_000_000_000
        plain = run_matrix(Scenario.from_dict(spec)).report.rows[0]
        assert not extra & set(plain)
