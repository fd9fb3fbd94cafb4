"""Tests for ``repro.runtime``: determinism, caching, and fault tolerance.

The module-level functions below are the sweep tasks — they must live at
module scope (not inside a test) so the process pool can pickle them by
qualified name, exactly like the experiments' ``run_point`` functions.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time

import pytest

from repro import runtime
from repro.cli import _experiment
from repro.resilience import journal as run_journal
from repro.experiments.runner import run_sweep
from repro.runtime import (
    ResultCache,
    RuntimeConfig,
    SweepError,
    SweepPlan,
    TaskSpec,
    Telemetry,
    run_tasks,
    stable_repr,
    task_id,
)
from repro.runtime.config import ConfigError
from repro.sim.units import MS


@contextlib.contextmanager
def journaled(path):
    """The run journal attached for the block (what ``--journal`` does)."""
    run_journal.activate(path)
    try:
        yield
    finally:
        run_journal.deactivate()


def cube(x, seed=1):
    return {"x": x, "cube": x ** 3, "seed": seed}


def flaky_once(marker):
    """Fails on the first call, succeeds after (state = a marker file)."""
    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("transient failure")
    return "recovered"


def always_fails():
    raise ValueError("permanently broken task")


def slow_ok(delay_s, tag=0):
    import time
    time.sleep(delay_s)
    return {"tag": tag}


def fails_after(delay_s):
    import time
    time.sleep(delay_s)
    raise ValueError("boom after sleeping")


#: Each spec-compiled figure at a scale of a few cells of a second or less.
_CLOS = dict(n_flows=20, drain_ps=50 * MS)
TINY_FIGURES = {
    "fig15": dict(protocols=("expresspass",), flow_counts=(2, 3),
                  warmup_ps=2 * MS, measure_ps=2 * MS),
    "table3": dict(protocols=("expresspass", "dctcp"),
                   workloads=("web_server",), loads=(0.2,), **_CLOS),
    "fig20": dict(workloads=("web_server",), speeds_gbps=(10,),
                  profiles=("default", "realistic"), **_CLOS),
    "fig21": dict(protocols=("expresspass",), workload="web_server", **_CLOS),
}


class TestStableRepr:
    def test_dict_order_independent(self):
        assert stable_repr({"a": 1, "b": 2}) == stable_repr({"b": 2, "a": 1})

    def test_tuple_vs_list_distinct(self):
        assert stable_repr((1, 2)) != stable_repr([1, 2])

    def test_dataclass_fields(self):
        from repro.core import ExpressPassParams

        a = ExpressPassParams(w_init=0.25)
        b = ExpressPassParams(w_init=0.25)
        c = ExpressPassParams(w_init=0.125)
        assert stable_repr(a) == stable_repr(b)
        assert stable_repr(a) != stable_repr(c)
        assert "ExpressPassParams" in stable_repr(a)

    def test_callable_by_qualname(self):
        assert "cube" in stable_repr(cube)

    def test_task_id_includes_seed(self):
        assert task_id(cube, {"x": 1, "seed": 7}) != task_id(
            cube, {"x": 1, "seed": 8})


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(TaskSpec(cube, {"x": 2}))
        hit, _ = cache.get(key)
        assert not hit
        assert cache.put(key, {"rows": [1, 2]}, task="t", elapsed_s=0.5)
        hit, value = cache.get(key)
        assert hit and value == {"rows": [1, 2]}

    def test_key_depends_on_kwargs(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert (cache.key_for(TaskSpec(cube, {"x": 1}))
                != cache.key_for(TaskSpec(cube, {"x": 2})))
        assert (cache.key_for(TaskSpec(cube, {"x": 1}))
                == cache.key_for(TaskSpec(cube, {"x": 1})))

    def test_sibling_of_the_package_is_fingerprinted(self, tmp_path,
                                                     monkeypatch):
        # ``src/repro_ext`` shares a string prefix with ``src/repro`` but is
        # not inside it: its source is in neither the package hash nor —
        # with a prefix match — the module hash, so edits never invalidated.
        import importlib.util
        import sys
        from repro.runtime import cache as cache_mod

        monkeypatch.setattr(cache_mod, "_package_root",
                            lambda: str(tmp_path / "src" / "repro"))
        monkeypatch.setattr(cache_mod, "_package_fingerprint",
                            lambda: "the package, unchanged")
        source = tmp_path / "src" / "repro_ext" / "tasks.py"
        source.parent.mkdir(parents=True)
        source.write_text("def task(x):\n    return x + 1\n")
        spec = importlib.util.spec_from_file_location("repro_ext.tasks",
                                                      source)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setitem(sys.modules, "repro_ext.tasks", module)

        cache = ResultCache(tmp_path / "cache")
        before = cache.key_for(TaskSpec(module.task, {"x": 1}))
        source.write_text("def task(x):\n    return x + 2\n")
        cache_mod._module_fingerprint.cache_clear()
        assert cache.key_for(TaskSpec(module.task, {"x": 1})) != before

    def test_package_fingerprint_is_an_exact_content_hash(self, tmp_path):
        import hashlib
        import os
        import shutil
        import repro
        from repro.runtime import cache as cache_mod

        def reference(root: pathlib.Path) -> str:
            digest = hashlib.blake2b(digest_size=32)
            for path in sorted(root.rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
            return digest.hexdigest()

        copy = tmp_path / "repro"
        shutil.copytree(pathlib.Path(repro.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        pristine = cache_mod._tree_fingerprint(str(copy))
        assert pristine == reference(copy) == cache_mod._package_fingerprint()
        # One byte, same size, same mtime: only reading the file can tell.
        victim = copy / "sim" / "units.py"
        stat = victim.stat()
        blob = bytearray(victim.read_bytes())
        blob[-2] ^= 1
        victim.write_bytes(bytes(blob))
        os.utime(victim, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        edited = cache_mod._tree_fingerprint(str(copy))
        assert edited != pristine and edited == reference(copy)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(TaskSpec(cube, {"x": 3}))
        cache.put(key, "value")
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit
        assert not (tmp_path / f"{key}.pkl").exists()  # pruned

    def test_unpicklable_value_not_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert not cache.put("k" * 64, lambda: None)

    # Torn or garbage entry bytes surface as very different exception types
    # from pickle.load / the entry["value"] lookup; every one of them must
    # count as a miss and prune the entry, never crash the sweep.
    TORN_BLOBS = [
        ("empty-file", b""),                         # EOFError
        ("truncated-frame", b"\x80\x05\x95"),        # UnpicklingError
        ("bad-int-literal", b"I123x\n."),            # ValueError
        ("bad-utf8-string",
         b"\x80\x04X\x04\x00\x00\x00\xff\xfe\xff\xfe."),  # UnicodeDecodeError
        ("non-dict-entry", __import__("pickle").dumps(5)),   # TypeError
        ("missing-value-key",
         __import__("pickle").dumps({"task": "t"})),  # KeyError
    ]

    @pytest.mark.parametrize("blob", [b for _n, b in TORN_BLOBS],
                             ids=[n for n, _b in TORN_BLOBS])
    def test_torn_entry_is_a_miss_not_a_crash(self, tmp_path, blob):
        cache = ResultCache(tmp_path)
        key = cache.key_for(TaskSpec(cube, {"x": 7}))
        assert cache.put(key, "value")
        (tmp_path / f"{key}.pkl").write_bytes(blob)
        hit, _ = cache.get(key)
        assert not hit
        assert not (tmp_path / f"{key}.pkl").exists()  # pruned

    def test_put_eviction_is_rate_limited(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        scans = []
        orig = ResultCache.evict
        cache.evict = lambda: scans.append(1) or orig(cache)
        for i in range(40):
            cache.put(cache.key_for(TaskSpec(cube, {"x": i})), i)
        # One scan on the first put of the instance's lifetime, then one
        # every _EVICT_EVERY puts — not one per put (quadratic over sweeps).
        assert len(scans) == 2
        # Between scans the caps may be overshot, but only boundedly.
        assert cache.stats()["entries"] <= 2 + ResultCache._EVICT_EVERY - 1
        assert ResultCache(tmp_path, max_entries=2).evict() >= 0

    def test_first_put_bounds_leftover_growth(self, tmp_path):
        # Entries left behind by earlier processes are pruned by a fresh
        # instance's very first put, not only after _EVICT_EVERY writes.
        import os
        old = ResultCache(tmp_path, max_entries=1000)
        for i in range(10):
            key = old.key_for(TaskSpec(cube, {"x": i}))
            old.put(key, i)
            os.utime(tmp_path / f"{key}.pkl", (1000 + i, 1000 + i))
        fresh = ResultCache(tmp_path, max_entries=3)
        fresh.put(fresh.key_for(TaskSpec(cube, {"x": 99})), 99)
        assert fresh.stats()["entries"] <= 3

    def test_entry_cap_evicts_lru(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=3)
        keys = [cache.key_for(TaskSpec(cube, {"x": i})) for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, i)
            # Spread mtimes so LRU ordering is well-defined even on coarse
            # filesystem timestamps.
            entry = tmp_path / f"{key}.pkl"
            import os
            os.utime(entry, (1000 + i, 1000 + i))
        cache.evict()
        stats = cache.stats()
        assert stats["entries"] == 3
        assert not cache.get(keys[0])[0]  # oldest gone
        assert cache.get(keys[4])[0]      # newest kept

    def test_size_cap_evicts(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1)
        key = cache.key_for(TaskSpec(cube, {"x": 9}))
        cache.put(key, list(range(1000)))
        assert cache.stats()["entries"] == 0

    def test_torn_prune_counter_persists(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(TaskSpec(cube, {"x": 11}))
        cache.put(key, "value")
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        assert not cache.get(key)[0]
        assert cache.counters()["torn_pruned"] == 1
        assert cache.stats()["torn_pruned"] == 1
        # Torn prunes flush immediately: a fresh instance (another process,
        # another day) still sees the count.
        assert ResultCache(tmp_path).counters()["torn_pruned"] == 1

    def test_eviction_scan_skip_counter(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=100)
        for i in range(5):
            cache.put(cache.key_for(TaskSpec(cube, {"x": i})), i)
        # First put of the instance scans; the next four ride the
        # amortization window and are counted as skipped.
        assert cache.counters()["eviction_scans_skipped"] == 4
        assert cache.stats()["eviction_scans_skipped"] == 4
        # The sidecar never masquerades as a cache entry.
        assert cache.stats()["entries"] == 5

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(cache.key_for(TaskSpec(cube, {"x": i})), i)
        assert cache.stats()["entries"] == 4
        assert cache.clear() == 4
        assert cache.stats()["entries"] == 0

    def test_directory_made_once_and_remade_if_removed(self, tmp_path,
                                                       monkeypatch):
        import shutil
        made = []
        mkdir = pathlib.Path.mkdir

        def counting(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", counting)
        directory = tmp_path / "cache"
        cache = ResultCache(directory)
        keys = [cache.key_for(TaskSpec(cube, {"x": i})) for i in range(40)]
        for i, key in enumerate(keys[:39]):
            assert cache.put(key, i)
        assert made == [directory]        # not one mkdir per entry
        # The directory vanishes under a running sweep (rm -rf, a tmp
        # reaper): the next put recreates it instead of raising.
        shutil.rmtree(directory)
        assert cache.put(keys[39], 39)
        assert made == [directory, directory]
        assert cache.get(keys[39]) == (True, 39)
        assert cache.stats()["entries"] == 1

    def test_entries_ignore_everything_but_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "absent")
        assert cache.stats()["entries"] == 0 and cache.clear() == 0
        assert cache.evict() == 0
        cache = ResultCache(tmp_path)
        key = cache.key_for(TaskSpec(cube, {"x": 1}))
        cache.put(key, "value")
        (tmp_path / "stray.tmp").write_bytes(b"half a write")
        (tmp_path / "notes.txt").write_text("not an entry")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] == (tmp_path / f"{key}.pkl").stat().st_size
        assert cache.clear() == 1
        assert (tmp_path / "stray.tmp").exists()

    def test_a_killed_writers_temp_file_is_swept_once_stale(self, tmp_path):
        """A writer killed between the open and the rename left its temp
        file forever: no scan counted it, evicted it or cleared it."""
        cache = ResultCache(tmp_path)
        key = cache.key_for(TaskSpec(cube, {"x": 1}))
        assert cache.put(key, "value")
        assert [p.name for p in tmp_path.glob("*.tmp")] == []
        orphan, legacy, live = (tmp_path / f"{key}.4242.tmp",
                                tmp_path / "tmpab12cd34.tmp",
                                tmp_path / f"{'0' * 64}.4243.tmp")
        for path in (orphan, legacy, live):
            path.write_bytes(b"half a write")
        aged = time.time() - ResultCache._LOCK_STALE_S - 1
        os.utime(orphan, (aged, aged))
        os.utime(legacy, (aged, aged))
        assert cache.stats()["orphan_tmp"] == 2
        assert cache.evict() == 0           # entries evicted: none
        assert not orphan.exists() and not legacy.exists()
        assert live.exists()                # a concurrent writer's
        assert cache.stats()["orphan_tmp"] == 0
        os.utime(live, (aged, aged))
        assert cache.clear() == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_a_dead_namesakes_temp_file_does_not_block_the_write(
            self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(TaskSpec(cube, {"x": 2}))
        (tmp_path / f"{key}.{os.getpid()}.tmp").write_bytes(b"half")
        assert cache.put(key, 8) and cache.get(key) == (True, 8)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_key_for_takes_the_identity_it_is_given(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = TaskSpec(cube, {"x": 5})
        assert cache.key_for(spec, spec.identity) == cache.key_for(spec)


class TestConfig:
    def test_from_env(self):
        cfg = RuntimeConfig.from_env({"REPRO_PARALLEL": "4",
                                      "REPRO_NO_CACHE": "1",
                                      "REPRO_RETRIES": "0",
                                      "REPRO_TASK_TIMEOUT": "2.5"})
        assert cfg.parallel == 4
        assert not cfg.cache_enabled
        assert cfg.retries == 0
        assert cfg.task_timeout_s == 2.5

    def test_using_restores(self):
        before = runtime.get_config()
        with runtime.using(parallel=7):
            assert runtime.get_config().parallel == 7
        assert runtime.get_config().parallel == before.parallel

    def test_unset_and_empty_mean_default(self):
        cfg = RuntimeConfig.from_env({"REPRO_PARALLEL": "",
                                      "REPRO_TASK_TIMEOUT": ""})
        assert cfg == RuntimeConfig.from_env({})
        assert cfg.task_timeout_s is None and cfg.retries == 2

    @pytest.mark.parametrize("name,value,expect", [
        ("REPRO_TASK_TIMEOUT", "abc", "a number > 0"),
        ("REPRO_TASK_TIMEOUT", "-5", "a number > 0"),
        ("REPRO_TASK_TIMEOUT", "nan", "a number > 0"),
        ("REPRO_PARALLEL", "four", "an integer >= 0"),
        ("REPRO_RETRIES", "-1", "an integer >= 0"),
        ("REPRO_CACHE_MAX_BYTES", "1e9", "an integer >= 0"),
    ])
    def test_hostile_value_names_variable_value_and_range(self, name, value,
                                                          expect):
        with pytest.raises(ConfigError) as err:
            RuntimeConfig.from_env({name: value})
        assert str(err.value) == f"{name}={value!r}: expected {expect}"

    def test_one_truthiness_rule_for_every_switch(self):
        for name in ("REPRO_AUDIT", "REPRO_PROFILE", "REPRO_METRICS"):
            field = name[len("REPRO_"):].lower()
            for raw, on in (("1", True), ("true", True), ("0", False),
                            ("false", False), ("", False)):
                cfg = RuntimeConfig.from_env({name: raw})
                assert getattr(cfg, field) is on, (name, raw)
            with pytest.raises(ConfigError) as err:
                RuntimeConfig.from_env({name: "yes"})
            assert str(err.value) == f"{name}='yes': expected 0/1/true/false"

    @pytest.mark.parametrize("name,value", [
        ("REPRO_TASK_TIMEOUT", "abc"),
        ("REPRO_TASK_TIMEOUT", "-5"),
        ("REPRO_METRICS_INTERVAL_PS", "1ms"),
        ("REPRO_AUDIT", "yes"),
    ])
    def test_cli_reports_hostile_env_in_one_line_and_exits_2(
            self, name, value, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(name, value)
        assert main(["run", "table1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (line,) = err.splitlines()
        assert line.startswith(f"repro: {name}={value!r}: expected ")

    @pytest.mark.parametrize("argv,line", [
        (["run", "table1", "--timeout", "-5"],
         "repro: --timeout='-5': expected a number > 0"),
        (["matrix", "smoke_mini", "--timeout", "-5", "--parallel", "2"],
         "repro: --timeout='-5': expected a number > 0"),
        (["matrix", "smoke_mini", "--parallel", "-3"],
         "repro: --parallel='-3': expected an integer >= 0"),
        (["run", "table1", "--retries", "-1"],
         "repro: --retries='-1': expected an integer >= 0"),
        (["chaos", "link-flap", "--parallel", "-3"],
         "repro: --parallel='-3': expected an integer >= 0"),
        (["run", "table1", "--parallel", "many"],
         "repro: --parallel='many': expected an integer >= 0"),
    ])
    def test_cli_holds_runtime_flags_to_their_env_twins_ranges(
            self, argv, line, capsys):
        from repro.cli import main

        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [line]

    def test_cli_refuses_a_selfchaos_point_that_would_never_fire(
            self, monkeypatch, capsys):
        from repro.cli import main
        from repro.resilience import selfchaos

        monkeypatch.setenv("REPRO_SELFCHAOS", ",".join(
            f"{point}=1" for point in selfchaos.POINTS))
        assert main(["list"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_SELFCHAOS", "cache:torn,shard:kill=1")
        assert main(["run", "table1"]) == 2
        out, err = capsys.readouterr()
        (line,) = err.splitlines()
        assert out == "" and line.startswith(
            "repro: REPRO_SELFCHAOS='cache:torn,shard:kill=1': "
            "unknown point 'shard:kill'; expected one of task:kill, ")

    def test_single_simulation_sharding_is_gone_not_hidden(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.sim.parallel")
        assert "shards" not in vars(RuntimeConfig())
        with pytest.raises(TypeError):
            RuntimeConfig(shards=2)
        # Its env knobs are simply no longer read — even a hostile value.
        assert RuntimeConfig.from_env({"REPRO_SHARDS": "2.5"}) == \
            RuntimeConfig.from_env({})

    def test_second_lifecycle_log_is_gone_not_hidden(self):
        assert "telemetry_path" not in vars(RuntimeConfig())
        with pytest.raises(TypeError):
            RuntimeConfig(telemetry_path="events.jsonl")
        assert RuntimeConfig.from_env({"REPRO_TELEMETRY": "events.jsonl"}) \
            == RuntimeConfig.from_env({})
        assert not hasattr(runtime, "read_events")


class TestScheduler:
    def test_results_in_grid_order(self, tmp_path):
        plan = SweepPlan.from_grid(cube, [{"x": i} for i in range(6)])
        with runtime.using(parallel=0, cache_dir=tmp_path):
            results = run_tasks(plan)
        assert [r.index for r in results] == list(range(6))
        assert [r.value["cube"] for r in results] == [i ** 3 for i in range(6)]

    def test_parallel_matches_serial(self, tmp_path):
        plan = SweepPlan.from_grid(cube, [{"x": i} for i in range(6)])
        with runtime.using(parallel=0, cache_dir=tmp_path / "serial"):
            serial = run_tasks(plan)
        with runtime.using(parallel=2, cache_dir=tmp_path / "par"):
            parallel = run_tasks(plan)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert not any(r.cached for r in parallel)

    def test_cached_rerun_hits_100_percent(self, tmp_path):
        plan = SweepPlan.from_grid(cube, [{"x": i} for i in range(4)])
        with runtime.using(parallel=0, cache_dir=tmp_path,
                           cache_enabled=True):
            first = run_tasks(plan)
            tel = Telemetry("rerun", len(plan), progress=False)
            second = run_tasks(plan, telemetry=tel)
        assert [r.value for r in first] == [r.value for r in second]
        assert all(r.cached for r in second)
        assert tel.hit_rate() == 1.0

    @pytest.mark.parametrize("parallel", [0, 2])
    def test_identity_rendered_once_per_task(self, tmp_path, monkeypatch,
                                             parallel):
        """The key and the entry's ``task`` field share one rendering of
        the kwargs (it is recursive — the per-task cost worth counting)."""
        import pickle
        from repro.runtime import task as task_module

        rendered = []
        inner = task_module.task_id

        def counting(fn, kwargs):
            rendered.append(kwargs["x"])
            return inner(fn, kwargs)

        monkeypatch.setattr(task_module, "task_id", counting)
        plan = SweepPlan.from_grid(cube, [{"x": i} for i in range(5)])
        with runtime.using(parallel=parallel, cache_dir=tmp_path,
                           cache_enabled=True):
            results = run_tasks(plan)
        assert all(r.ok and not r.cached for r in results)
        assert sorted(rendered) == list(range(5))
        tasks = sorted(pickle.loads(path.read_bytes())["task"]
                       for path in tmp_path.glob("*.pkl"))
        assert tasks == sorted(spec.identity for spec in plan)

    def test_failing_task_is_retried_then_recovers(self, tmp_path):
        marker = tmp_path / "marker"
        with runtime.using(parallel=0, cache_enabled=False, retries=2,
                           backoff_s=0.0):
            results = run_tasks([TaskSpec(flaky_once,
                                          {"marker": str(marker)})])
        assert results[0].ok
        assert results[0].value == "recovered"
        assert results[0].attempts == 2

    def test_permanent_failure_does_not_kill_sweep(self, tmp_path):
        tasks = [TaskSpec(always_fails, {}, label="bad"),
                 TaskSpec(cube, {"x": 5}, label="good")]
        for workers in (0, 2):
            with runtime.using(parallel=workers, cache_enabled=False,
                               retries=1, backoff_s=0.0):
                results = run_tasks(tasks)
            bad, good = results
            assert not bad.ok and "permanently broken" in bad.error
            assert bad.attempts == 2  # initial try + 1 retry
            assert good.ok and good.value["cube"] == 125

    def test_pool_backoff_does_not_stall_collection(self, tmp_path):
        # A retry backoff must never sleep on the dispatcher thread: while
        # the flaky task waits out its (long) backoff window, the other
        # tasks' completed futures are collected.  The telemetry stream
        # orders the proof: both ok tasks finish before the flaky task's
        # second attempt even starts.
        log = tmp_path / "events.jsonl"
        marker = tmp_path / "marker"
        tasks = [TaskSpec(flaky_once, {"marker": str(marker)}, label="flaky"),
                 TaskSpec(slow_ok, {"delay_s": 0.2, "tag": 0}, label="ok0"),
                 TaskSpec(slow_ok, {"delay_s": 0.2, "tag": 1}, label="ok1")]
        with journaled(log), \
                runtime.using(parallel=3, cache_enabled=False, retries=1,
                              backoff_s=1.0):
            results = run_tasks(tasks)
        assert results[0].ok and results[0].value == "recovered"
        assert results[0].attempts == 2
        assert results[1].ok and results[2].ok
        events = run_journal.load_journal(log).events
        ok_done = [i for i, e in enumerate(events)
                   if e["event"] == "task_done"
                   and e["label"].startswith("ok")]
        retry_start = [i for i, e in enumerate(events)
                       if e["event"] == "task_started"
                       and e["label"] == "flaky" and e["attempt"] == 2]
        assert len(ok_done) == 2 and len(retry_start) == 1
        assert max(ok_done) < retry_start[0]
        # The backoff window itself is observable: a task_deferred event
        # (with the wait and its due time) when the retry parks, and a
        # task_resubmitted event when it re-enters the pool.
        deferred = [e for e in events if e["event"] == "task_deferred"]
        resubmitted = [e for e in events if e["event"] == "task_resubmitted"]
        assert len(deferred) == 1 and deferred[0]["label"] == "flaky"
        assert deferred[0]["backoff_s"] == pytest.approx(1.0)
        assert deferred[0]["due_t"] > 0
        assert len(resubmitted) == 1 and resubmitted[0]["attempt"] == 2
        summary = events[-1]
        assert summary["event"] == "sweep_done"
        assert summary["deferred"] == 1 and summary["resubmitted"] == 1

    def test_serial_backoff_emits_deferral_events(self, tmp_path):
        # The serial path reports the same deferral lifecycle as the pool:
        # parked (task_deferred) then re-run (task_resubmitted).
        log = tmp_path / "events.jsonl"
        marker = tmp_path / "marker"
        with journaled(log), \
                runtime.using(parallel=0, cache_enabled=False, retries=1,
                              backoff_s=0.01):
            results = run_tasks([TaskSpec(flaky_once,
                                          {"marker": str(marker)},
                                          label="flaky")])
        assert results[0].ok and results[0].attempts == 2
        kinds = [e["event"] for e in run_journal.load_journal(log).events]
        assert kinds.count("task_deferred") == 1
        assert kinds.count("task_resubmitted") == 1
        assert kinds.index("task_deferred") < kinds.index("task_resubmitted")

    def test_pool_failure_records_wall_time(self):
        with runtime.using(parallel=2, cache_enabled=False, retries=0):
            results = run_tasks([TaskSpec(fails_after, {"delay_s": 0.2},
                                          label="f")])
        assert not results[0].ok
        assert "boom after sleeping" in results[0].error
        # The pool path must record submission-to-failure wall time, not 0.
        assert results[0].wall_s >= 0.15

    def test_unpicklable_task_degrades_to_serial(self):
        with runtime.using(parallel=2, cache_enabled=False):
            results = run_tasks([TaskSpec(lambda: "inline", {}, "lambda")])
        assert results[0].ok
        assert results[0].value == "inline"

    def test_telemetry_jsonl(self, tmp_path):
        log = tmp_path / "events.jsonl"
        with journaled(log), \
                runtime.using(parallel=0, cache_dir=tmp_path / "cache"):
            run_tasks(SweepPlan.from_grid(cube, [{"x": 1}, {"x": 2}]))
        events = run_journal.load_journal(log).events
        kinds = [e["event"] for e in events]
        assert kinds.count("task_done") == 2
        assert kinds[-1] == "sweep_done"
        summary = events[-1]
        assert summary["done"] == 2 and summary["failed"] == 0


class TestRunSweep:
    def test_all_tasks_failing_raises(self):
        with runtime.using(parallel=0, cache_enabled=False, retries=0):
            with pytest.raises(SweepError) as info:
                run_sweep(always_fails, [{}, {}])
        assert len(info.value.failures) == 2

    def test_partial_failure_drops_row(self, tmp_path):
        marker = tmp_path / "m"
        with runtime.using(parallel=0, cache_enabled=False, retries=0):
            rows = run_sweep(flaky_once,
                             [{"marker": str(marker)},
                              {"marker": str(marker)}])
        assert rows == ["recovered"]  # first attempt failed, no retries

    def test_strict_raises_on_any_failure(self, tmp_path):
        marker = tmp_path / "m"
        with runtime.using(parallel=0, cache_enabled=False, retries=0):
            with pytest.raises(SweepError):
                run_sweep(flaky_once,
                          [{"marker": str(marker)},
                           {"marker": str(marker)}], strict=True)


class TestExperimentDeterminism:
    """The acceptance criterion: serial == parallel == cached, bit-identical."""

    @pytest.mark.parametrize("fig", sorted(TINY_FIGURES))
    def test_serial_parallel_cached_identical(self, fig, tmp_path):
        run = _experiment(fig)
        kwargs = TINY_FIGURES[fig]
        with runtime.using(parallel=0, cache_dir=tmp_path / "serial"):
            serial = run(**kwargs)
        assert serial.rows
        with runtime.using(parallel=2, cache_dir=tmp_path / "par"):
            parallel = run(**kwargs)
        assert serial.rows == parallel.rows
        # Bit-identical, not merely approximately equal: json renders every
        # float with its exact shortest repr, so equal strings means equal
        # bit patterns.  (pickle bytes can differ in memo framing even for
        # equal values, so they are not a valid identity probe.)
        assert (json.dumps(serial.rows, sort_keys=True)
                == json.dumps(parallel.rows, sort_keys=True))
        # Warm rerun out of the parallel run's cache.
        with runtime.using(parallel=0, cache_dir=tmp_path / "par"):
            cached = run(**kwargs)
        assert (json.dumps(cached.rows, sort_keys=True)
                == json.dumps(serial.rows, sort_keys=True))

    def test_summary_runs_through_runtime(self, tmp_path):
        from repro.experiments import summary

        with runtime.using(parallel=0, cache_dir=tmp_path):
            result = summary.run(seed=1)
        assert result.meta["all_ok"]
        # Second run: every simulation-backed check comes from the cache
        # and the verdicts are unchanged.
        with runtime.using(parallel=0, cache_dir=tmp_path):
            again = summary.run(seed=1)
        assert again.rows == result.rows
