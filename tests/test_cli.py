"""Tests for the command-line interface."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.cli import _EXPERIMENTS, _experiment, _parse_value, _summary, main


class TestParseValue:
    def test_int(self):
        assert _parse_value("42") == 42

    def test_float(self):
        assert _parse_value("0.5") == 0.5

    def test_tuple(self):
        assert _parse_value("4,16,64") == (4, 16, 64)

    def test_bool(self):
        assert _parse_value("true") is True
        assert _parse_value("False") is False

    def test_string(self):
        assert _parse_value("web_search") == "web_search"

    def test_mixed_tuple(self):
        assert _parse_value("expresspass,dctcp") == ("expresspass", "dctcp")


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1" in out
        # ``list`` reads each summary from the module's source: it must be
        # the first line of the docstring the imported module carries.
        for name in _EXPERIMENTS:
            doc = sys.modules[_experiment(name).__module__].__doc__
            assert _summary(name) == doc.strip().splitlines()[0], name
            assert f"{name:8s} {_summary(name)}" in out.splitlines()

    def test_a_reader_that_hangs_up_gets_no_traceback(self):
        """``python -m repro list | head -1``: the reader closes the pipe
        before the listing is flushed.  The run ends with exit 1 and an
        empty stderr, not a ``BrokenPipeError`` traceback."""
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(env, PYTHONPATH=str(src)))
        proc.stdout.close()  # long before the child has imported the CLI
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == ""

    def test_run_table1(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "tor_down_kb" in out

    def test_run_with_override(self, capsys):
        assert main(["run", "fig12", "--set", "n_flows=4",
                     "--set", "periods=50"]) == 0
        out = capsys.readouterr().out
        assert "w_min" in out

    def test_run_json(self, capsys):
        assert main(["run", "fig12", "--set", "periods=50", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"]

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_bad_set_syntax_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "table1", "--set", "oops"])

    @pytest.mark.parametrize("argv, line", [
        (["run", "fig19", "--set", "load=1.5"],
         "workload.load: load must be in (0, 1], got 1.5"),
        (["run", "table3", "--set", "loads=0.2,1.5"],
         "workload.load: load must be in (0, 1], got 1.5"),
        (["run", "fig20", "--set", "profiles=bogus"],
         "transport.ep_profile"),
    ], ids=["fig19-load", "table3-loads", "fig20-profile"])
    def test_a_refused_spec_is_its_rendered_error_exit_1(self, argv, line,
                                                         capsys):
        """A spec-compiled figure refuses a bad value as ``matrix`` does:
        the field-addressed error, exit 1, no traceback."""
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert line in err and "Traceback" not in err

    @pytest.mark.parametrize("fig", ["table3", "fig15", "fig12"])
    def test_a_key_the_run_function_lacks_is_a_usage_error(self, fig,
                                                           capsys):
        assert main(["run", fig, "--set", "bogus=1"]) == 2
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith(f"repro: --set bogus: {fig} has no parameter")

    def test_one_value_of_a_tuple_parameter_is_a_1_tuple(self, capsys):
        """``flow_counts=4`` is ``(4,)``, and ``protocols=expresspass`` is
        one protocol, not eleven one-letter ones."""
        assert main(["run", "fig15", "--set", "protocols=expresspass",
                     "--set", "flow_counts=4", "--set", "warmup_ps=2000000000",
                     "--set", "measure_ps=2000000000", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r["protocol"], r["flows"]) for r in rows] == \
            [("expresspass", 4)]

    def test_seed_override_plumbed(self, capsys):
        assert main(["run", "fig14a", "--seed", "3",
                     "--set", "samples=2000"]) == 0
        seed3 = capsys.readouterr().out
        assert main(["run", "fig14a", "--seed", "4",
                     "--set", "samples=2000"]) == 0
        seed4 = capsys.readouterr().out
        assert seed3 != seed4  # the seed actually reached the experiment

    def test_seed_ignored_for_analytic_experiment(self, capsys):
        assert main(["run", "table1", "--seed", "5"]) == 0
        err = capsys.readouterr().err
        assert "ignoring --seed" in err

    # A deliberately tiny fig15 sweep: one protocol, two flow counts.
    FIG15_TINY = ["run", "fig15", "--set", "protocols=expresspass,",
                  "--set", "flow_counts=2,3", "--set", "warmup_ps=2000000000",
                  "--set", "measure_ps=2000000000"]

    def test_parallel_run_matches_serial_and_caches(self, capsys, tmp_path):
        from repro import runtime

        with runtime.using(cache_dir=tmp_path, cache_enabled=True):
            assert main(self.FIG15_TINY + ["--json"]) == 0
            serial = capsys.readouterr().out
            assert main(self.FIG15_TINY + ["--json", "--parallel", "2"]) == 0
            parallel = capsys.readouterr().out
        assert serial == parallel          # bit-identical rows
        assert len(list(tmp_path.glob("*.pkl"))) == 2  # one entry per task

    def test_no_cache_flag(self, capsys, tmp_path):
        from repro import runtime

        with runtime.using(cache_dir=tmp_path):
            assert main(self.FIG15_TINY + ["--no-cache"]) == 0
        assert list(tmp_path.glob("*.pkl")) == []


class TestCacheCommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        from repro import runtime
        from repro.runtime import ResultCache, TaskSpec

        with runtime.using(cache_dir=tmp_path):
            cache = ResultCache(tmp_path)
            cache.put(cache.key_for(TaskSpec(main, {})), {"rows": []})
            assert main(["cache", "stats"]) == 0
            out = capsys.readouterr().out
            assert "entries:    1" in out and str(tmp_path) in out
            assert main(["cache", "clear"]) == 0
            assert "removed 1 entries" in capsys.readouterr().out
            assert main(["cache", "stats"]) == 0
            assert "entries:    0" in capsys.readouterr().out


class TestScenarioCli:
    @staticmethod
    def _tiny_spec(tmp_path, **over):
        spec = {
            "schema": "repro.scenarios/v1",
            "name": "cli-tiny",
            "topology": {"kind": "dumbbell"},
            "workload": {"kind": "persistent", "n_flows": 2},
            "transport": {"protocol": "expresspass"},
            "timing": {"warmup_ps": 2_000_000_000,
                       "measure_ps": 2_000_000_000},
        }
        spec.update(over)
        path = tmp_path / "cli-tiny.json"
        path.write_text(json.dumps(spec))
        return path

    def test_scenarios_list(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke_mini" in out and "cell(s)" in out

    def test_scenarios_validate_ok_and_bad(self, capsys, tmp_path):
        good = self._tiny_spec(tmp_path)
        assert main(["scenarios", "validate", str(good)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "repro.scenarios/v1",
                                   "transport": {"protocol": "quic"}}))
        assert main(["scenarios", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "name" in err and "transport.protocol" in err

    def test_matrix_runs_and_writes_reports(self, capsys, tmp_path):
        from repro import scenarios

        spec = self._tiny_spec(tmp_path)
        jsonl = tmp_path / "report.jsonl"
        csv = tmp_path / "report.csv"
        assert main(["matrix", str(spec), "--report-jsonl", str(jsonl),
                     "--report-csv", str(csv), "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout is pure JSON
        assert payload["scenario"] == "cli-tiny"
        assert payload["rows"][0]["utilization"] > 0
        stats = scenarios.validate_report_jsonl(jsonl)
        assert stats["records"]["cell"] == 1
        assert csv.read_text().count("\n") == 2  # header + one row

    def test_matrix_set_override_and_filter(self, capsys, tmp_path):
        spec = self._tiny_spec(
            tmp_path, sweep={"workload.n_flows": [2, 3]})
        assert main(["matrix", str(spec), "--filter", "n_flows=3",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["flows"] == 3

    def test_matrix_bad_spec_exits_1(self, capsys, tmp_path):
        spec = self._tiny_spec(tmp_path)
        assert main(["matrix", str(spec), "--set",
                     "transport.protocol=quic"]) == 1
        assert "transport.protocol" in capsys.readouterr().err

    def test_matrix_unknown_spec_exits_1(self, capsys):
        assert main(["matrix", "fig99_imaginary"]) == 1
        assert "fig99_imaginary" in capsys.readouterr().err

    def test_shards_flag_is_an_inert_shim(self, capsys, tmp_path,
                                          monkeypatch):
        """``--shards`` outlived single-simulation sharding only as a
        spelling (DESIGN §13): it is noted, starts no process, and changes
        no row."""
        import multiprocessing.process

        def no_children(self):
            raise AssertionError("--shards started a child process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_children)
        spec = self._tiny_spec(
            tmp_path, topology={"kind": "fat_tree", "params": {"k": 4}},
            workload={"kind": "persistent", "n_flows": 4})
        rows = {}
        for shards in ("1", "2"):
            assert main(["matrix", str(spec), "--shards", shards,
                         "--no-cache", "--json"]) == 0
            out, err = capsys.readouterr()
            rows[shards] = [
                {k: v for k, v in row.items() if k != "wall_s"}
                for row in json.loads(out)["rows"]]
            notes = [line for line in err.splitlines() if "--shards" in line]
            assert notes == ([] if shards == "1" else [
                "repro: --shards is ignored: single-simulation sharding "
                "was removed (DESIGN §13); running serially"])
        assert rows["2"] == rows["1"]

    def test_removed_timing_key_says_it_can_be_deleted(self, capsys,
                                                       tmp_path):
        spec = self._tiny_spec(tmp_path, timing={
            "warmup_ps": 2_000_000_000, "measure_ps": 2_000_000_000,
            "shards": 2})
        for argv in (["scenarios", "validate", str(spec)],
                     ["matrix", str(spec)]):
            assert main(argv) == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert f"{spec}: timing.shards: removed" in line
            assert "delete this key" in line and "unknown key" not in line

    @pytest.mark.parametrize("argv,token", [
        (["matrix", "smoke_mini", "--seeds", "x"], "x"),
        (["chaos", "link-flap", "--seeds", "1,y"], "y"),
        (["matrix", "smoke_mini", "--seeds", ","], ","),
        (["matrix", "smoke_mini", "--seeds", ""], ""),
    ])
    def test_bad_seeds_is_a_usage_error_naming_the_token(self, argv, token,
                                                         capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"repro: error: --seeds expects comma-separated integers, "
            f"got {token!r}")


    def test_a_replicate_listed_twice_is_refused_not_counted_twice(
            self, capsys):
        assert main(["matrix", "smoke_mini", "--seeds", "1,1"]) == 1
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.endswith(
            "--seeds: duplicate seeds in [1, 1]")


class TestOutputPaths:
    """Every file an invocation writes is checked before any work: the
    flags that name one, and the journal and trace (with its Perfetto
    sibling) wherever their paths come from."""

    @staticmethod
    def _no_tasks(monkeypatch):
        from repro.runtime import scheduler

        def unreachable(*a, **k):
            raise AssertionError("a task was started")
        monkeypatch.setattr(scheduler, "_call", unreachable)

    @pytest.mark.parametrize("argv,flag", [
        (["matrix", "smoke_mini"], "--report-jsonl"),
        (["matrix", "smoke_mini"], "--report-csv"),
        (["matrix", "smoke_mini"], "--obs-jsonl"),
        (["matrix", "smoke_mini"], "--trace"),
        (["run", "fig12"], "--trace"),
        (["run", "fig12"], "--obs-jsonl"),
        (["chaos", "link-flap"], "--emit-plan"),
        (["chaos", "link-flap"], "--trace"),
        (["matrix", "smoke_mini"], "--journal"),
        (["run", "fig12"], "--journal"),
    ])
    def test_unwritable_path_is_one_line_exit_2_before_the_first_task(
            self, argv, flag, tmp_path, monkeypatch, capsys):
        self._no_tasks(monkeypatch)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        dest = blocker / "out.dat"      # under a regular file: unwritable
        journal = tmp_path / "j.jsonl"
        extra = [] if flag == "--journal" else ["--journal", str(journal)]
        assert main(argv + [flag, str(dest)] + extra) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.startswith(f"repro: {flag}={dest}: ")
        assert not journal.exists()     # no meta, no task_queued

    @pytest.mark.parametrize("source,name,case", [
        ("env", "REPRO_TRACE", "under-a-file"),
        ("env", "REPRO_JOURNAL", "under-a-file"),
        ("flag", "--trace", "perfetto-is-a-dir"),
        ("env", "REPRO_TRACE", "perfetto-is-a-dir"),
    ])
    def test_env_and_derived_paths_are_checked_up_front(
            self, source, name, case, tmp_path, monkeypatch, capsys):
        self._no_tasks(monkeypatch)
        if case == "under-a-file":
            blocker = tmp_path / "afile"
            blocker.write_text("")
            dest = blocker / "out.jsonl"
        else:
            dest = tmp_path / "t.jsonl"
            (tmp_path / "t.jsonl.perfetto.json").mkdir()
        argv = ["matrix", "smoke_mini"]
        if source == "env":
            monkeypatch.setenv(name, str(dest))
        else:
            argv += [name, str(dest)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.startswith(f"repro: {name}={dest}: ")
        if case == "perfetto-is-a-dir":
            assert "perfetto.json" in line
        assert not dest.exists()

    def test_missing_parent_directory_is_created(self, tmp_path, capsys):
        from repro import scenarios

        dest = tmp_path / "not" / "yet" / "report.jsonl"
        assert main(["matrix", "fig15_flow_scalability", "--backend", "fluid",
                     "--filter", "protocol=expresspass n_flows=4",
                     "--report-jsonl", str(dest)]) == 0
        assert scenarios.validate_report_jsonl(dest)["records"]["cell"] == 1

    def test_probe_leaves_no_file_behind(self, tmp_path, capsys):
        dest = tmp_path / "new" / "report.csv"
        assert main(["matrix", "fig99_imaginary",
                     "--report-csv", str(dest)]) == 1
        assert dest.parent.is_dir() and not dest.exists()


class TestVerbs:
    @pytest.mark.parametrize("verb", ["obs", "profile"])
    def test_removed_verbs_are_invalid_choices(self, verb, capsys):
        """``repro run X --obs-jsonl F`` / ``--profile`` replace them."""
        with pytest.raises(SystemExit) as exc:
            main([verb, "fig12"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("knob,counted", [
        ("--audit", r"(\d+) audited run\(s\)"),
        ("REPRO_AUDIT", r"(\d+) audited run\(s\)"),
        ("REPRO_METRICS", r"across (\d+) run\(s\)"),
        ("REPRO_PROFILE", r"across (\d+) simulator\(s\)"),
    ])
    def test_a_plane_knob_observes_every_cell_on_a_warm_cache(
            self, knob, counted, tmp_path, monkeypatch, capsys):
        """Switched on from the environment, auditing, profiling and
        metering bypass the result cache exactly as their flags do — and
        ``--audit`` does: a warm audited run served from the cache would
        pass having checked nothing."""
        from repro.runtime import config

        # The suite pins a config for every test; a knob only reaches the
        # CLI through the environment when no config is active.
        monkeypatch.setattr(config, "_ACTIVE", None)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["matrix", "smoke_mini", "--set", "workload.n_flows=1"]
        assert main(argv) == 0                           # cold: fills it
        assert "cached: 0" in capsys.readouterr().out
        if knob.startswith("--"):
            argv.append(knob)
        else:
            monkeypatch.setenv(knob, "1")
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "cached: 0" in out
        # Every one of the 4 cells ran at least one observed simulation.
        assert int(re.search(counted, err).group(1)) >= 4, err
