"""Self-tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths`` is unchanged): these test the measuring
instrument, not the program.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import catalog  # noqa: E402
import check  # noqa: E402
import measure  # noqa: E402
import run as e2e_run  # noqa: E402
import spans  # noqa: E402
import specgen  # noqa: E402


# -- spec generation ----------------------------------------------------------

@pytest.mark.parametrize("workload",
                         list(specgen.WORKLOADS) + list(specgen.PROBE_SPECS))
def test_spec_is_a_pure_function_of_the_seed(workload, tmp_path):
    assert specgen.spec_text(workload, 7) == specgen.spec_text(workload, 7)
    assert specgen.spec_text(workload, 7) != specgen.spec_text(workload, 8)
    a = specgen.write_spec(workload, 7, tmp_path)
    assert a.read_text() == specgen.spec_text(workload, 7)
    # The seed changes what is simulated, never how much of it.
    assert specgen.cell_count(specgen.spec_for(workload, 7)) \
        == specgen.cell_count(specgen.spec_for(workload, 8))


def test_generated_specs_compile_to_the_counted_cells():
    from repro import scenarios

    expected = {"packet_sweep": 16, "poisson_fct": 4, "warm_rerun": 64,
                "fluid_grid": 768, "probe_slice": 4, "probe_fattree": 1}
    for workload, cells in expected.items():
        spec = specgen.spec_for(workload, 5)
        assert specgen.cell_count(spec) == cells
        compiled = scenarios.compile_scenario(
            scenarios.loads(specgen.spec_text(workload, 5), fmt="json"))
        assert len(compiled) == cells


# -- span arithmetic ----------------------------------------------------------

def _span(inv, id_, parent, name, t0, t1):
    return {"inv": inv, "id": id_, "parent": parent, "name": name,
            "cpu0": t0, "cpu1": t1, "wall0": t0 * 2, "wall1": t1 * 2}


def test_self_time_is_span_minus_what_children_cover():
    tree = [
        _span("a", 0, None, "root", 0.0, 10.0),
        _span("a", 1, 0, "tasks", 1.0, 9.0),
        _span("a", 2, 1, "cell", 2.0, 4.0),
        _span("a", 3, 1, "cell", 5.0, 8.0),
        _span("a", 4, 2, "engine", 2.5, 3.5),
        # Overlapping children are covered once, not twice.
        _span("a", 5, 0, "overlap", 9.0, 9.5),
        _span("a", 6, 0, "overlap", 9.25, 9.75),
        # Same ids in another invocation must not mix in.
        _span("b", 0, None, "root", 0.0, 1.0),
        _span("b", 1, 0, "tasks", 0.0, 1.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[("a", 0)] == pytest.approx(10.0 - 8.0 - 0.75)
    assert selfs[("a", 1)] == pytest.approx(8.0 - 2.0 - 3.0)
    assert selfs[("a", 2)] == pytest.approx(1.0)
    assert selfs[("a", 4)] == pytest.approx(1.0)
    assert selfs[("b", 0)] == pytest.approx(0.0)
    assert spans.self_total(tree, "cell") == pytest.approx(1.0 + 3.0)
    assert spans.total(tree, "cell") == pytest.approx(5.0)
    assert spans.total(tree, "engine", under="cell") == pytest.approx(1.0)
    assert spans.total(tree, "engine", under="overlap") == 0.0
    assert spans.total(tree, "root", clock="wall") == pytest.approx(22.0)


def test_recorder_nests_and_wrap_preserves_identity():
    rec = spans.SpanRecorder("inv")

    def cell(x):
        return x + 1

    seen = []
    wrapped = rec.wrap(cell, "cell", after=lambda out, x: seen.append((out, x)))
    root = rec.begin("root")
    assert wrapped(1) == 2
    rec.end(root)
    assert [s["name"] for s in rec.spans] == ["root", "cell"]
    assert rec.spans[1]["parent"] == rec.spans[0]["id"]
    assert seen == [(2, 1)]
    # Task identities (and so cache keys) are built from these two.
    assert (wrapped.__module__, wrapped.__qualname__) \
        == (cell.__module__, cell.__qualname__)


# -- calibrated medians -------------------------------------------------------

def test_calibrated_seconds_follow_the_kernel():
    ref = measure.CALIB_REF_S
    assert measure.calibrated(3.0, [ref, ref]) == pytest.approx(3.0)
    # A box running 25 % slow inflates raw CPU and the kernel alike.
    assert measure.calibrated(3.0 * 1.25, [ref * 1.25] * 3) \
        == pytest.approx(3.0)
    # The mean of the readings, bursts included: a burst that hit the
    # kernel hit the program in the same proportion.
    assert measure.calibrated(3.0, [ref * 0.8, ref * 1.2]) == pytest.approx(3.0)


def test_summarize_reports_median_quartiles_and_n():
    s = measure.summarize([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["median"], s["min"], s["max"], s["n"]) == (3.0, 1.0, 5.0, 5)
    assert (s["q1"], s["q3"]) == (1.5, 4.5)
    assert s["iqr_share"] == pytest.approx(1.0)
    assert measure.summarize([2.0])["iqr_share"] == 0.0


def test_sampler_reads_the_kernel_while_the_block_runs(monkeypatch):
    monkeypatch.setattr(measure, "CALIB_GAP_S", 0.001)
    monkeypatch.setattr(measure, "calibration_kernel",
                        lambda: sum(range(20_000)))
    calib = measure.Calibrator()
    with calib.sampling() as quick:
        pass
    assert len(quick) >= 1  # even an empty block gets its reading
    with calib.sampling() as longer:
        deadline = time.monotonic() + 0.05
        while time.monotonic() < deadline:
            time.sleep(0.005)
    assert len(longer) > len(quick)
    assert all(reading > 0 for reading in longer)
    assert calib.readings == quick + longer


# -- children -----------------------------------------------------------------

def test_wait4_rss_is_per_child_not_a_high_water_mark():
    env = measure.child_env(ROOT / "src", "/nonexistent", "/tmp")
    big = measure.run_child(
        [sys.executable, "-c", "x = bytearray(120 * 1024 * 1024); x[::4096] = "
                               "b'1' * len(x[::4096])"], env)
    small = measure.run_child([sys.executable, "-c", "pass"], env)
    assert big.returncode == 0 and small.returncode == 0
    assert big.maxrss_mb > 120
    assert small.maxrss_mb < big.maxrss_mb / 2
    assert small.cpu_s > 0 and small.wall_s > 0


def test_env_is_scrubbed_of_ambient_repro_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "8")
    monkeypatch.setenv("REPRO_AUDIT", "1")
    env = measure.child_env("src", "cache", "tmp")
    assert {k: v for k, v in env.items() if k.startswith("REPRO_")} \
        == {"REPRO_CACHE_DIR": "cache", "REPRO_PROGRESS": "0"}


# -- failed_share -------------------------------------------------------------

def test_nonzero_exit_raises_failed_share(tmp_path):
    bench = e2e_run.Bench(1, tmp_path)
    tally = check.Tally()
    usage = bench._child(
        tally, "forced failure",
        measure.repro_argv("scenarios", "validate",
                           str(tmp_path / "no-such-spec.json")),
        tmp_path / "cache")
    assert usage.returncode != 0
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failed_share == 1.0
    assert "exit code" in tally.problems[0]


def _write_report(path, n_rows, **row_extra):
    from repro.scenarios.report import build_report, write_report_jsonl

    rows = [dict({"cell": f"c[{i}]", "protocol": "dctcp", "seed": i,
                  "utilization": 0.9, "cached": False, "wall_s": 0.1},
                 **row_extra) for i in range(n_rows)]
    write_report_jsonl(str(path), build_report("t", rows))
    return rows


def test_missing_cell_raises_failed_share(tmp_path):
    ok = check.Tally()
    _write_report(tmp_path / "full.jsonl", 4)
    check.check_report(ok, "full", tmp_path / "full.jsonl", 4)
    assert (ok.attempted, ok.failed) == (4, 0)

    short = check.Tally()
    _write_report(tmp_path / "short.jsonl", 3)
    check.check_report(short, "short", tmp_path / "short.jsonl", 4)
    assert (short.attempted, short.failed) == (4, 1)
    assert short.failed_share == 0.25

    errored = check.Tally()
    _write_report(tmp_path / "err.jsonl", 4, error="boom")
    check.check_report(errored, "err", tmp_path / "err.jsonl", 4)
    assert errored.failed == 4

    unreadable = check.Tally()
    (tmp_path / "torn.jsonl").write_text('{"record": "cell"')
    check.check_report(unreadable, "torn", tmp_path / "torn.jsonl", 4)
    assert (unreadable.attempted, unreadable.failed) == (4, 4)


def test_warm_rerun_rows_must_be_cached_and_equal_the_priming_run(tmp_path):
    _write_report(tmp_path / "prime.jsonl", 3)
    prime = check.stable_rows(tmp_path / "prime.jsonl")
    assert all("cached" not in r and "wall_s" not in r for r in prime)

    cold = check.Tally()
    check.check_report(cold, "cold", tmp_path / "prime.jsonl", 3,
                       all_cached=True, same_rows_as=prime)
    assert cold.failed == 3  # cached: false everywhere

    _write_report(tmp_path / "warm.jsonl", 3, cached=True, wall_s=0.0)
    warm = check.Tally()
    check.check_report(warm, "warm", tmp_path / "warm.jsonl", 3,
                       all_cached=True, same_rows_as=prime)
    assert warm.failed == 0

    _write_report(tmp_path / "drift.jsonl", 3, cached=True, utilization=0.8)
    drift = check.Tally()
    check.check_report(drift, "drift", tmp_path / "drift.jsonl", 3,
                       all_cached=True, same_rows_as=prime)
    assert drift.failed == 3


def test_pinned_digests_count_changed_rows(tmp_path, monkeypatch):
    monkeypatch.setattr(check, "REFERENCE", tmp_path / "ref" / "digests.json")
    assert check.rows_changed("w", 1, ["a", "b"]) is None
    check.pin_reference("w", 1, ["a", "b", "c"])
    assert check.rows_changed("w", 1, ["a", "b", "c"]) == 0
    assert check.rows_changed("w", 1, ["a", "x", "c"]) == 1
    assert check.rows_changed("w", 1, ["a", "b"]) == 1
    # Another seed draws other rows: the comparison is skipped.
    assert check.rows_changed("w", 2, ["a", "b", "c"]) is None


# -- the contract file --------------------------------------------------------

def test_benchmark_json_lists_the_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(e2e_run.TABLE)
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] \
        == [(m.name, m.unit, m.better, m.bound) for m in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in catalog.PER_LAYER]
    setup = next(m for m in catalog.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in catalog.END_TO_END) <= 0.25
