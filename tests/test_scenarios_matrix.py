"""End-to-end matrix runs and the spec-vs-frozen-legacy-rows pins."""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro import runtime, scenarios
from repro.runtime.cache import code_fingerprint
from repro.scenarios import Scenario, SpecError, run_matrix
from repro.sim.fluid.cells import run_fluid as _RUN_FLUID

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
        with runtime.using(cache_enabled=True):
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
    them (``tests/golden/<fig>_legacy_rows.json`` for fig01, fig10, fig11,
    fig15, fig19, fig20, fig21, incast, rdma and table3).
    Frozen data: a mismatch means the spec path drifted — never regenerate
    these."""
    path = pathlib.Path(__file__).parent / "golden" / f"{fig}_legacy_rows.json"
    return json.loads(path.read_text())[case]


#: The Clos/Poisson pins' scale (each golden file records its kwargs).
_CLOS = dict(n_flows=20, drain_ps=50_000_000_000)


class TestBitIdentity:
    """The spec-compiled figure runners must reproduce the deleted
    hand-written path exactly — same floats, same row order."""

    def test_fig15_spec_matches_legacy(self):
        from repro.experiments import fig15_flow_scalability as f15

        legacy = _legacy_rows("fig15", "default")
        res = f15.run(protocols=("expresspass", "dctcp"), flow_counts=(2, 3),
                      warmup_ps=_WARM, measure_ps=_MEAS)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    @pytest.mark.parametrize("fig, module", [
        ("fig01", "fig01_queue_buildup"), ("incast", "incast_closed_loop"),
        ("rdma", "rdma_comparison")])
    def test_fan_in_spec_matches_legacy(self, fig, module):
        """Fig 1, the closed-loop incast and the RDMA comparison are the
        incast cell's persistent, closed-loop and one-shot traffic; the
        Fig 1 and closed-loop cases fan in above ``hosts - 1``, so the
        workers wrap.  The golden file records the legacy call's kwargs."""
        from importlib import import_module

        kwargs = _legacy_rows(fig, "kwargs")
        legacy = _legacy_rows(fig, "default")
        res = import_module(f"repro.experiments.{module}").run(**kwargs)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    @pytest.mark.parametrize("fig, module", [
        ("fig10", "fig10_parking_lot"), ("fig11", "fig11_multibottleneck")])
    def test_parking_lot_family_spec_matches_legacy(self, fig, module):
        """Figs 10 and 11 are the persistent cell on the parking lot and the
        multi-bottleneck, with a 40 us base RTT and each family's own
        column; the golden file records the legacy call's kwargs."""
        from importlib import import_module

        kwargs = _legacy_rows(fig, "kwargs")
        legacy = _legacy_rows(fig, "default")
        res = import_module(f"repro.experiments.{module}").run(**kwargs)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    def test_fig19_spec_matches_legacy(self):
        from repro.experiments import fig19_realistic_fct as f19

        legacy = _legacy_rows("fig19", "default")
        res = f19.run(protocols=("expresspass", "dctcp"), n_flows=30,
                      drain_ps=50_000_000_000)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    def test_table3_spec_matches_legacy(self):
        from repro.experiments import table3_queue_occupancy as t3

        legacy = _legacy_rows("table3", "default")
        res = t3.run(protocols=("expresspass", "dctcp"),
                     workloads=("web_server", "data_mining"),
                     loads=(0.2, 0.6), **_CLOS)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    def test_fig20_spec_matches_legacy(self):
        """The legacy α = w_init ∈ {1/2, 1/16} loop is the default/realistic
        profile pair; the ``alpha`` column is derived from the profile."""
        from repro.experiments import fig20_credit_waste as f20

        legacy = _legacy_rows("fig20", "default")
        res = f20.run(workloads=("data_mining", "web_server"),
                      speeds_gbps=(10, 40),
                      profiles=("default", "realistic"), **_CLOS)
        assert res.columns == legacy["columns"]
        assert res.rows == legacy["rows"]

    def test_fig21_spec_matches_legacy(self):
        """Every column is exact except the speed-up itself.  The legacy
        loop divided the buckets' mean FCT in seconds; the pivot divides
        the cells' ``avg_fct_ms`` (the same mean × 1e3, rounded once more),
        so a quotient may land one ulp away — at the default web_search
        workload with ``n_flows=30``, one of six does."""
        from repro.experiments import fig21_speedup as f21

        legacy = _legacy_rows("fig21", "default")
        res = f21.run(protocols=("expresspass", "dctcp"),
                      workload="web_server", n_flows=30,
                      drain_ps=_CLOS["drain_ps"])
        assert res.columns == legacy["columns"]
        assert len(res.rows) == len(legacy["rows"])
        for row, old in zip(res.rows, legacy["rows"]):
            assert (row["protocol"], row["bucket"]) == \
                (old["protocol"], old["bucket"])
            assert row["speedup_avg_fct"] == \
                pytest.approx(old["speedup_avg_fct"], rel=1e-12)


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


# -- cells vs tasks (DESIGN §12) ----------------------------------------------
#
# ``tests/golden/fluid_matrix_rows.json`` was dumped at the last commit that
# ran every seed replica of a fluid cell as its own task (PR 12's method:
# frozen data, never regenerated): the stable rows of ``replica_spec("fluid")``
# and the SHA-256 of three of ``replica_spec("packet")``'s task identities.

_REPLICAS = json.loads((pathlib.Path(__file__).parent / "golden"
                        / "fluid_matrix_rows.json").read_text())


def replica_spec(backend: str, **over) -> dict:
    """3 seeds x 4 axis points."""
    spec = tiny_spec(name="replicas", backend=backend, seeds=[1, 2, 3],
                     sweep={"transport.protocol": ["expresspass", "dctcp"],
                            "workload.n_flows": [2, 3]})
    del spec["transport"], spec["report"]
    spec.update(over)
    return spec


def _stable(rows):
    return [{k: v for k, v in row.items() if k not in ("cached", "wall_s")}
            for row in rows]


class TestCellsVsTasks:
    def test_fluid_replicas_share_one_task_and_rows_are_the_parents(self):
        scenario = Scenario.from_dict(replica_spec("fluid"))
        matrix = scenarios.compile_scenario(scenario)
        plan = matrix.plan()
        assert (len(matrix), len(plan)) == (12, 4)
        assert [t.label for t in plan] == [
            "replicas[protocol=expresspass n_flows=2]",
            "replicas[protocol=expresspass n_flows=3]",
            "replicas[protocol=dctcp n_flows=2]",
            "replicas[protocol=dctcp n_flows=3]"]
        assert all("seed" not in t.kwargs for t in plan)
        assert matrix.slots() == [i // 3 for i in range(12)]
        assert all(cell.task is plan.tasks[slot]
                   for cell, slot in zip(matrix.cells, matrix.slots()))
        with runtime.using(cache_enabled=False):
            out = run_matrix(scenario)
        assert _stable(out.report.rows) == _REPLICAS["rows"]
        assert [r.label for r in out.results] == \
            [c.label for c in matrix.cells]
        assert [v["seed"] for v in out.values()] == [1, 2, 3] * 4
        assert out.report.meta["cells"] == 12

    def test_packet_cells_stay_one_task_each_with_the_parents_identity(self):
        matrix = scenarios.compile_scenario(
            Scenario.from_dict(replica_spec("packet")))
        plan = matrix.plan()
        assert len(matrix) == len(plan) == 12
        assert [t.label for t in plan] == [c.label for c in matrix.cells]
        assert all(t.kwargs["seed"] == c.seed
                   for t, c in zip(plan, matrix.cells))
        by_label = {c.label: c.task for c in matrix.cells}
        cache = runtime.ResultCache("unused")
        for label, digest in _REPLICAS["packet_identity_sha256"].items():
            task = by_label[label]
            assert hashlib.sha256(
                task.identity.encode()).hexdigest() == digest
            # The key is that identity plus the source tree's hash (which
            # every edit moves, so only the identity can be pinned).
            assert cache.key_for(task) == hashlib.blake2b(
                (task.identity + "\n" + code_fingerprint(task.fn)).encode(),
                digest_size=32).hexdigest()

    def test_a_backend_axis_shares_only_its_fluid_half(self):
        spec = replica_spec("packet", seeds=[1, 2], sweep={
            "backend": ["fluid", "packet"],
            "transport.protocol": ["expresspass", "dctcp"]})
        matrix = scenarios.compile_scenario(Scenario.from_dict(spec))
        assert matrix.slots() == [0, 0, 1, 1, 2, 3, 4, 5]
        assert [("seed" in t.kwargs) for t in matrix.plan()] == \
            [False, False, True, True, True, True]

    def test_cold_then_warm_writes_and_reads_one_entry_per_task(self,
                                                                tmp_path):
        scenario = Scenario.from_dict(replica_spec("fluid"))
        with runtime.using(cache_dir=tmp_path / "cache", cache_enabled=True):
            cold = run_matrix(scenario)
            assert len(list((tmp_path / "cache").glob("*.pkl"))) == 4
            warm = run_matrix(scenario)
        assert cold.report.meta["cached"] == 0
        assert all(row["cached"] for row in warm.report.rows)
        assert (warm.report.meta["cells"], warm.report.meta["cached"]) == \
            (12, 12)
        assert _stable(warm.report.rows) == _REPLICAS["rows"]
        # meta.wall_s sums tasks, not rows: 4 terms, not 12.
        assert cold.report.meta["wall_s"] == round(sum(
            row["wall_s"] for row in cold.report.rows[::3]), 3)

    def test_a_failed_shared_task_fails_each_of_its_cells(self, monkeypatch):
        from repro.sim.fluid import cells as fluid_cells

        monkeypatch.setattr(fluid_cells, "run_fluid", _no_dctcp)
        with runtime.using(cache_enabled=False, retries=0):
            out = run_matrix(Scenario.from_dict(replica_spec("fluid")))
        assert not out.ok
        assert [r.label for r in out.failed] == [
            f"replicas[protocol=dctcp n_flows={n} seed={s}]"
            for n in (2, 3) for s in (1, 2, 3)]
        assert {r.error for r in out.failed} == {"RuntimeError: no dctcp"}
        assert [row.get("error") for row in out.report.rows] == \
            [None] * 6 + ["RuntimeError: no dctcp"] * 6
        assert out.report.meta["failed"] == 6
        assert [v["seed"] for v in out.values()] == [1, 2, 3] * 2

    def test_filtering_one_seed_runs_each_task_once(self):
        scenario = Scenario.from_dict(replica_spec("fluid"))
        matrix = scenarios.compile_scenario(scenario).filtered("seed=2")
        assert (len(matrix), len(matrix.plan())) == (4, 4)
        with runtime.using(cache_enabled=False):
            out = run_matrix(scenario, cell_filter="seed=2")
        assert _stable(out.report.rows) == _REPLICAS["rows"][1::3]

    def test_fig15_on_the_fluid_backend_reports_the_seed_it_was_given(
            self, monkeypatch, capsys):
        from repro.cli import main

        outcomes = []
        monkeypatch.setattr(
            scenarios, "run_matrix",
            lambda *a, **k: outcomes.append(run_matrix(*a, **k))
            or outcomes[-1])
        assert main(["run", "fig15", "--backend", "fluid", "--no-cache",
                     "--set", "seed=7", "--set", "flow_counts=2,4"]) == 0
        capsys.readouterr()
        (out,) = outcomes
        assert len(out.results) == 6
        assert {v["seed"] for v in out.values()} == {7}
        assert {row["seed"] for row in out.report.rows} == {7}

    def test_traced_cells_link_to_their_shared_task_span(self):
        from repro.obs import trace as obs_trace

        obs_trace.reset()
        try:
            with obs_trace.tracing() as tracer, \
                    runtime.using(cache_enabled=False):
                run_matrix(Scenario.from_dict(replica_spec("fluid")))
        finally:
            obs_trace.reset()
        spans = [r for r in tracer.records if r["record"] == "span"]
        tasks = {r["id"]: r for r in spans if r["layer"] == "runtime"
                 and r["name"].startswith("replicas[")}
        cells = [r for r in spans if r["layer"] == "cell"]
        assert (len(tasks), len(cells)) == (4, 12)
        assert [list(tasks).index(c["link"]) for c in cells] == \
            [i // 3 for i in range(12)]
        assert all("seed" not in t["args"] for t in tasks.values())
        assert [c["args"]["seed"] for c in cells] == [1, 2, 3] * 4


def _no_dctcp(**kwargs):
    if kwargs["protocol"] == "dctcp":
        raise RuntimeError("no dctcp")
    return _RUN_FLUID(**kwargs)
