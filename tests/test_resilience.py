"""Crash-safe execution (``repro.resilience``, DESIGN.md §15).

The invariant every test here circles back to: **recovery never changes
results**.  A campaign that loses a worker to SIGKILL, its parent to
Ctrl-C, or a cache blob to a torn write must come back — via retry or
``repro resume`` — with byte-identical output and no orphan processes
left behind.

Sweep task functions live at module scope so the process pool can pickle
them, like everywhere else in the suite.  Self-chaos directives are armed
per-test through ``REPRO_SELFCHAOS`` (+ a tmpdir ``REPRO_SELFCHAOS_DIR``
for the once-only markers) and the signal-drain flag is reset around every
test so the module leaves no global state behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import runtime
from repro.cli import main as cli_main
from repro.resilience import (
    EXIT_INTERRUPTED,
    JOURNAL_SCHEMA,
    RunJournal,
    load_journal,
    selfchaos,
)
from repro.resilience import journal as run_journal
from repro.resilience import signals as shutdown
from repro.runtime import ResultCache, TaskSpec, Telemetry, run_tasks

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_resilience_state():
    """No test leaks the drain flag, an active journal, or chaos env."""
    shutdown.reset()
    run_journal.deactivate()
    yield
    shutdown.reset()
    run_journal.deactivate()


@pytest.fixture
def chaos(monkeypatch, tmp_path):
    """Arm ``REPRO_SELFCHAOS`` with a private once-only marker dir."""
    def _arm(directives: str):
        monkeypatch.setenv(selfchaos.ENV_VAR, directives)
        monkeypatch.setenv(selfchaos.ENV_DIR, str(tmp_path / "chaos-markers"))
    return _arm


def _assert_no_orphans():
    deadline = time.monotonic() + 10
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert multiprocessing.active_children() == []


def _pid_gone(pid) -> bool:
    """True once ``pid`` is dead *and* reaped (a zombie still takes
    signal 0)."""
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    return False


def _sleepers(tmp_path, tags):
    """Specs that sleep "forever", each leaving its worker's pid in a file."""
    pidfiles = [tmp_path / f"sleeper{t}.pid" for t in tags]
    specs = [TaskSpec(pid_after, {"delay_s": 600, "pidfile": str(f)},
                      label=f"sleeper[tag={t}]")
             for t, f in zip(tags, pidfiles)]
    return specs, pidfiles


# -- sweep task functions (module scope: pool workers pickle by name) --------

def square(x, seed=1):
    return {"x": x, "sq": x * x, "seed": seed}


def request_shutdown_then_return(x):
    """A task that behaves like a SIGINT arriving mid-sweep."""
    shutdown.request("SIGINT")
    return {"x": x}


def sleep_forever(tag=0):
    time.sleep(600)
    return {"tag": tag}


def quick(tag=0):
    return {"tag": tag}


def nap(delay_s, tag=0):
    time.sleep(delay_s)
    return {"tag": tag}


def pid_after(delay_s=0.0, pidfile=None):
    """The executing process's pid — left in ``pidfile`` before the nap."""
    if pidfile:
        pathlib.Path(pidfile).write_text(str(os.getpid()))
    time.sleep(delay_s)
    return os.getpid()


def fail_once(marker):
    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("transient failure")
    return "recovered"


def lock_value():
    return threading.Lock()  # a value no pipe can carry


def _specs(fn, values, key="x"):
    return [TaskSpec(fn, {key: v}, label=f"{fn.__name__}[{key}={v}]")
            for v in values]


# ---------------------------------------------------------------------------
# Journal: round-trip, folding, torn tails
# ---------------------------------------------------------------------------

class TestJournal:
    def test_round_trip_and_folding(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        jr = RunJournal(path)
        jr.meta(argv=["run", "fig15"], command="run", name="fig15")
        jr.event("task_queued", index=0, label="t0", key="k0")
        jr.event("task_queued", index=1, label="t1", key="k1")
        jr.event("task_queued", index=2, label="t2", key="k2")
        jr.event("task_started", index=0, label="t0", attempt=1)
        # An event nobody emits since the pool stopped recycling: journals
        # that hold one still fold — it never was a task state.
        jr.event("pool_recycled", killed=2, abandoned=2)
        jr.event("task_done", index=0, label="t0", key="k0", cached=False)
        jr.event("task_failed", index=1, label="t1", error="boom",
                 attempts=3)
        jr.event("sweep", name="fig15", total=3)
        jr.close()

        state = load_journal(path)
        assert state.meta["schema"] == JOURNAL_SCHEMA == "repro.resilience/v2"
        assert state.argv == ["run", "fig15"]
        assert state.generation == 0
        assert state.by_state("done") == [0]
        assert state.by_state("failed") == [1]
        assert state.unfinished() == [2]
        assert state.tasks[(0, 0)]["key"] == "k0"
        # Every line is {"t", "event", ...} and the state keeps them all,
        # in file order, for readers that want more than the fold.
        assert [e["event"] for e in state.events] == [
            "meta", "task_queued", "task_queued", "task_queued",
            "task_started", "pool_recycled", "task_done", "task_failed",
            "sweep"]
        assert all(isinstance(e["t"], float) for e in state.events)
        assert "total" not in state.meta and "total" not in state.summary()
        assert not hasattr(state, "total")
        assert state.torn_lines == 0

    def test_torn_final_line_warns_and_folds_the_rest(self, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        jr = RunJournal(path)
        jr.meta(argv=["run", "x"], command="run", name="x")
        jr.event("task_done", index=0, label="t0")
        jr.close()
        with path.open("a") as fh:
            fh.write('{"t": 1.0, "event": "task_done", "ind')  # SIGKILL here
        with pytest.warns(UserWarning, match="torn journal line"):
            state = load_journal(path)
        assert state.torn_lines == 1
        assert state.by_state("done") == [0]
        assert (0, 1) not in state.tasks

    def test_multi_sweep_campaign_folds_per_sweep(self, tmp_path):
        # An experiment that calls run_tasks twice writes two sweeps into
        # one journal; their 0..n-1 indices must not collide in the fold.
        path = tmp_path / "run.journal.jsonl"
        jr = RunJournal(path)
        jr.meta(argv=["run", "x"], command="run", name="x")
        jr.event("sweep", name="warmup", total=2)
        jr.event("task_done", index=0, label="w0")
        jr.event("task_done", index=1, label="w1")
        jr.event("sweep", name="main", total=2)
        jr.event("task_done", index=0, label="m0")
        jr.event("task_failed", index=1, label="m1", error="boom")
        jr.close()
        state = load_journal(path)
        assert sorted(state.tasks) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        summary = state.summary()
        assert summary["done"] == 3 and summary["failed"] == 1
        assert state.unfinished() == []

    def test_resume_generation_overwrites_prior_sweeps(self, tmp_path):
        # Each meta record (a resume) replays the argv from the top, so
        # its sweep ordinals restart at zero and fold *onto* the earlier
        # generation's records instead of stacking beside them.
        path = tmp_path / "run.journal.jsonl"
        jr = RunJournal(path)
        jr.meta(argv=["run", "x"], command="run", name="x")
        jr.event("sweep", name="x", total=2)
        jr.event("task_done", index=0, label="t0")
        jr.event("task_started", index=1, label="t1")  # SIGKILL about here
        jr.meta(argv=["run", "x"], command="run", name="x", generation=1)
        jr.event("sweep", name="x", total=2)
        jr.event("cache_hit", index=0, label="t0", cached=True)
        jr.event("task_done", index=1, label="t1")
        jr.close()
        state = load_journal(path)
        assert state.generation == 1
        assert sorted(state.tasks) == [(0, 0), (0, 1)]
        assert state.tasks[(0, 1)]["state"] == "done"
        assert state.unfinished() == []

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_journal(tmp_path / "nope.jsonl")

    def test_writer_never_raises_on_bad_path(self):
        jr = RunJournal(pathlib.Path("/proc/nonexistent/journal.jsonl"))
        # Swallowed: the journal is a safety net, never a failure mode.
        jr.event("task_done", index=0, label="t0")
        jr.close()

    def test_v1_journal_is_refused_not_read(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"record": "meta", "schema": "repro.resilience/v1", '
            '"argv": ["run", "x", "--journal", "old.jsonl"], '
            '"generation": 0}\n'
            '{"record": "task", "index": 0, "state": "done"}\n')
        with pytest.raises(ValueError, match="is not repro.resilience/v2"):
            load_journal(path)

    def test_writer_has_one_way_in(self):
        assert not hasattr(RunJournal, "task")
        assert not hasattr(RunJournal, "note")


class TestSchedulerJournaling:
    def test_run_tasks_journals_states_and_cache_keys(self, tmp_path):
        jr = run_journal.activate(tmp_path / "j.jsonl")
        with runtime.using(cache_dir=tmp_path / "cache", cache_enabled=True,
                           parallel=0, progress=False):
            run_tasks(_specs(square, [2, 3]), name="sq")
            run_tasks(_specs(square, [2, 3]), name="sq")  # cache replay
        run_journal.deactivate()
        state = load_journal(jr.path)
        # Two run_tasks calls = two sweeps in one journal; their task
        # records fold under distinct sweep ordinals, not on top of each
        # other, so the counts reflect all four executions.
        assert state.by_state("done") == [0, 0, 1, 1]
        assert sorted(state.tasks) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # First generation executed (cached=False), second replayed.
        done = [e for e in state.events
                if e["event"] in ("task_done", "cache_hit")]
        assert [d["cached"] for d in done] == [False, False, True, True]
        assert all(d["key"] for d in done)
        # The same file carries what the telemetry log used to: the cache
        # verdict per task and the closing summary per sweep.
        kinds = [e["event"] for e in state.events]
        assert kinds.count("cache_miss") == 2 and kinds.count("cache_hit") == 2
        assert [e["done"] for e in state.events
                if e["event"] == "sweep_done"] == [2, 2]

    def test_serial_drain_marks_interrupted(self, tmp_path):
        jr = run_journal.activate(tmp_path / "j.jsonl")
        tel = Telemetry("drain", 3, progress=False)
        with runtime.using(cache_enabled=False, parallel=0, retries=0,
                           progress=False):
            results = run_tasks(_specs(request_shutdown_then_return,
                                       [1, 2, 3]),
                                name="drain", telemetry=tel)
        run_journal.deactivate()
        assert len(results) == 3
        assert results[0].ok                      # finished before the drain
        assert results[1].interrupted and results[2].interrupted
        assert results[1].error == "interrupted (SIGINT)"
        assert tel.counts["interrupted"] == 2
        state = load_journal(jr.path)
        assert state.by_state("interrupted") == [1, 2]
        assert state.unfinished() == [1, 2]       # exactly what resume redoes


# ---------------------------------------------------------------------------
# CLI: one flag attaches the log, `repro resume FILE` re-attaches FILE
# ---------------------------------------------------------------------------

class TestRunLogCli:
    ARGS = ["run", "fig15", "--backend", "fluid", "--set", "flow_counts=2,4"]

    def test_resume_reattaches_the_journal_it_was_given(self, tmp_path,
                                                        monkeypatch, capsys):
        # A relative --journal used to be stored as typed and replayed
        # against the resuming process's cwd: a second, generation-0
        # journal appeared there and the real one never saw generation 1.
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        monkeypatch.chdir(a)
        assert cli_main(self.ARGS + ["--journal", "j.jsonl"]) == 0
        first = capsys.readouterr().out
        monkeypatch.chdir(b)
        assert cli_main(["resume", "../a/j.jsonl"]) == 0
        assert capsys.readouterr().out == first
        assert list(b.iterdir()) == []
        assert [p.name for p in a.iterdir()] == ["j.jsonl"]
        state = load_journal(a / "j.jsonl")
        assert [m["generation"] for m in state.metas] == [0, 1]
        assert [m["argv"] for m in state.metas] == [self.ARGS, self.ARGS]
        assert not state.unfinished()

    def test_v1_journal_is_refused_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "old.jsonl"
        v1 = ('{"record": "meta", "schema": "repro.resilience/v1", '
              '"argv": ["run", "fig15"], "generation": 0}\n')
        path.write_text(v1)
        for argv, who in ((["resume", str(path)], "resume"),
                          (self.ARGS + ["--journal", str(path)], "run")):
            assert cli_main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines() == [
                f"{who}: {path}: journal schema 'repro.resilience/v1' is "
                f"not repro.resilience/v2; re-run the original command — "
                f"completed tasks replay from the result cache"]
        assert path.read_text() == v1       # refused, not appended to

    @pytest.mark.parametrize("flag", ["--telemetry", "--resume"])
    def test_removed_spellings_are_usage_errors(self, flag, tmp_path, capsys):
        target = tmp_path / "x.jsonl"
        target.write_text("")       # --resume used to demand it exists
        with pytest.raises(SystemExit) as info:
            cli_main(self.ARGS + [flag, str(target)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert target.read_text() == ""

    def test_removed_env_knob_creates_no_file(self, tmp_path, monkeypatch):
        # A fresh interpreter: the suite's session config would mask an
        # environment read.
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_TELEMETRY", str(log))
        _repro(self.ARGS, tmp_path)
        assert not log.exists()


# ---------------------------------------------------------------------------
# Self-chaos: killed workers, torn cache writes, ENOSPC
# ---------------------------------------------------------------------------

class TestSelfChaos:
    def test_directives_fire_once(self, chaos):
        chaos("task:kill=alpha,parent:kill=2")
        assert selfchaos.armed()
        assert not selfchaos.fire("task:kill", label="beta")
        assert selfchaos.fire("task:kill", label="task-alpha-1")
        assert not selfchaos.fire("task:kill", label="task-alpha-2")  # spent
        assert not selfchaos.fire("parent:kill", count=1)
        assert selfchaos.fire("parent:kill", count=2)
        assert not selfchaos.fire("parent:kill", count=3)

    def test_disarmed_is_free(self):
        assert not selfchaos.armed()
        assert not selfchaos.fire("task:kill", label="anything")

    def test_worker_sigkill_recovers_bit_identical(self, chaos, tmp_path):
        with runtime.using(cache_enabled=False, parallel=0, progress=False):
            baseline = run_tasks(_specs(square, [4, 5, 6]), name="kill")
        chaos("task:kill=x=5")
        tel = Telemetry("kill", 3, progress=False)
        with runtime.using(cache_enabled=False, parallel=2, retries=1,
                           progress=False):
            survived = run_tasks(_specs(square, [4, 5, 6]), name="kill",
                                 telemetry=tel)
        assert [r.value for r in survived] == [r.value for r in baseline]
        assert all(r.ok for r in survived)
        _assert_no_orphans()

    def test_cache_torn_write_is_pruned_as_miss(self, chaos, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        chaos("cache:torn")
        assert cache.put("k" * 64, {"big": list(range(500))})
        hit, value = cache.get("k" * 64)
        assert not hit and value is None
        assert cache.counters()["torn_pruned"] == 1
        assert not list((tmp_path / "cache").glob("*.pkl"))
        # Once-only: the next put is healthy.
        assert cache.put("k" * 64, {"big": list(range(500))})
        assert cache.get("k" * 64)[0]

    def test_cache_enospc_put_fails_cleanly(self, chaos, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        chaos("cache:enospc")
        assert not cache.put("e" * 64, {"v": 1})
        assert not list((tmp_path / "cache").glob("*"))  # no torn tmp files
        assert cache.put("e" * 64, {"v": 1})  # directive spent
        assert cache.get("e" * 64) == (True, {"v": 1})


# ---------------------------------------------------------------------------
# Cross-process eviction lock
# ---------------------------------------------------------------------------

class TestEvictionLock:
    def _full_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", max_entries=1)
        cache.put("a" * 64, {"v": 1})
        cache.put("b" * 64, {"v": 2})
        return cache

    def test_busy_lock_skips_scan(self, tmp_path):
        cache = self._full_cache(tmp_path)
        lock = cache._lock_path()
        lock.write_text("pid=12345\n")  # fresh: a live concurrent scanner
        assert cache.evict() == 0
        assert cache.counters()["eviction_lock_busy"] >= 1
        assert lock.exists()  # not ours to release

    def test_stale_lock_is_broken_and_scan_proceeds(self, tmp_path):
        cache = self._full_cache(tmp_path)
        lock = cache._lock_path()
        lock.write_text("pid=12345\n")
        stale = time.time() - (cache._LOCK_STALE_S + 60)
        os.utime(lock, (stale, stale))
        assert cache.evict() >= 1  # takeover: caps enforced again
        assert not lock.exists()
        assert len(list((tmp_path / "cache").glob("*.pkl"))) == 1

    def test_lock_released_after_normal_evict(self, tmp_path):
        cache = self._full_cache(tmp_path)
        cache.evict()
        assert not cache._lock_path().exists()

    def test_lost_takeover_race_skips_scan_and_leaves_lock(self, tmp_path,
                                                           monkeypatch):
        # Two processes can both judge the same orphan lock stale; the
        # takeover renames the lock aside before removing it, so the loser
        # (whose rename fails because the winner already moved the inode)
        # must back off without ever unlinking the path — which by then
        # may be the winner's *fresh* lock.
        cache = self._full_cache(tmp_path)
        lock = cache._lock_path()
        lock.write_text("pid=12345\n")
        stale = time.time() - (cache._LOCK_STALE_S + 60)
        os.utime(lock, (stale, stale))

        def lose_rename(src, dst, *args, **kwargs):
            raise FileNotFoundError(src)

        monkeypatch.setattr(os, "rename", lose_rename)
        assert cache.evict() == 0
        assert lock.exists()
        assert cache.counters()["eviction_lock_busy"] >= 1


# ---------------------------------------------------------------------------
# Timeouts and drains stop exactly the workers that earned it
# ---------------------------------------------------------------------------

class TestPoolRecycle:
    def test_timeout_abandonment_recycles_and_queue_completes(
            self, tmp_path):
        tel = Telemetry("recycle", 4, progress=False)
        sleepers, pidfiles = _sleepers(tmp_path, [0, 1])
        specs = sleepers + _specs(quick, [2, 3], key="tag")
        with runtime.using(cache_enabled=False, parallel=2, retries=0,
                           task_timeout_s=0.5, progress=False):
            results = run_tasks(specs, name="recycle", telemetry=tel)
        # Each timed-out worker was killed and reaped, not left grinding.
        assert all(_pid_gone(f.read_text()) for f in pidfiles)
        assert results[0].error and "timeout" in results[0].error
        assert results[1].error and "timeout" in results[1].error
        # The queued tasks never started (both workers were hung), so the
        # timeout — clocked from the moment a task is sent — is not theirs
        # to pay: both finish on the fresh workers that took the slots.
        assert results[2].value == {"tag": 2}
        assert results[3].value == {"tag": 3}
        _assert_no_orphans()

    def test_drain_deadline_kills_abandoned_pool(self, monkeypatch, tmp_path):
        # A drain whose grace expires kills the workers still running, so
        # the grace deadline bounds shutdown time — nobody waits out a
        # sleeper, neither here nor at interpreter exit.
        monkeypatch.setattr(shutdown, "DRAIN_GRACE_S", 0.2)
        tel = Telemetry("drain", 2, progress=False)
        specs, pidfiles = _sleepers(tmp_path, [0, 1])

        def request_once_workers_are_up():
            # Fire the drain only after both pool workers exist (plus a
            # beat for them to pick their tasks up), so the sleepers are
            # genuinely *running* — a cancel-while-queued drain would
            # never exercise the deadline path.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline \
                    and len(multiprocessing.active_children()) < 2:
                time.sleep(0.05)
            time.sleep(0.5)
            shutdown.request("SIGINT")

        trigger = threading.Thread(target=request_once_workers_are_up,
                                   daemon=True)
        trigger.start()
        with runtime.using(cache_enabled=False, parallel=2, retries=0,
                           progress=False):
            t0 = time.monotonic()
            results = run_tasks(specs, name="drain", telemetry=tel)
            wall = time.monotonic() - t0
        trigger.join(timeout=35)
        assert all(r.interrupted for r in results)
        assert all(_pid_gone(f.read_text()) for f in pidfiles)
        assert wall < 30                        # nobody waited out a sleeper
        _assert_no_orphans()


# ---------------------------------------------------------------------------
# Pool faults are local: one task per worker, one pipe per worker
# ---------------------------------------------------------------------------

_KILLER_SCRIPT = """\
import json, os, signal
from repro import runtime
from repro.runtime import TaskSpec, run_tasks

def killer():
    os.kill(os.getpid(), signal.SIGKILL)

def ident(x):
    return x

if __name__ == "__main__":
    specs = [TaskSpec(killer, {}, label="killer")] + [
        TaskSpec(ident, {"x": i}, label=f"t{i}") for i in range(5)]
    with runtime.using(cache_enabled=False, parallel=2, retries=1,
                       backoff_s=0.0, progress=False):
        results = run_tasks(specs, name="killer")
    print(json.dumps([[r.ok, r.error, r.attempts] for r in results]))
"""


class _DeathWatch(Telemetry):
    """Notes, the moment a ``task_failed`` is emitted, whether the process
    whose pid sits in ``pidfile`` is already dead and reaped."""

    def __init__(self, pidfile, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pidfile = pidfile
        self.gone_at_failure = []

    def task_failed(self, index, label, error, attempts):
        self.gone_at_failure.append(_pid_gone(self.pidfile.read_text()))
        super().task_failed(index, label, error, attempts)


class TestPoolFaults:
    def test_worker_killer_fails_alone_and_the_parent_survives(
            self, tmp_path):
        # A task that takes its worker down (SIGKILL here; an OOM kill or
        # a segfault reads the same) is that task's failure after
        # ``retries + 1`` attempts, each on a pool worker — never a rerun
        # inside the parent, which used to die with it (exit 137).
        proc = _run_script(tmp_path, _KILLER_SCRIPT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        killer, *rest = json.loads(proc.stdout)
        assert killer == [False, "worker died (exit -9)", 2]
        assert rest == [[True, None, 1]] * 5

    def test_only_the_hung_task_pays_the_timeout(self, tmp_path):
        # The clock starts when a task is sent to its worker, so the time
        # healthy tasks spend queued behind a hung one is nobody's
        # timeout; the hung worker is dead before its failure is recorded.
        (hung,), (pidfile,) = _sleepers(tmp_path, [0])
        specs = [hung] + [TaskSpec(nap, {"delay_s": 0.2, "tag": t},
                                   label=f"nap[{t}]") for t in range(1, 17)]
        tel = _DeathWatch(pidfile, "hung", len(specs), progress=False)
        with runtime.using(cache_enabled=False, parallel=2, retries=0,
                           task_timeout_s=0.5, progress=False):
            results = run_tasks(specs, name="hung", telemetry=tel)
            assert multiprocessing.active_children() == []
        assert [r.index for r in results if not r.ok] == [0]
        assert results[0].error == "timeout after 0.5s"
        assert tel.gone_at_failure == [True]
        assert [r.value["tag"] for r in results[1:]] == list(range(1, 17))

    def test_raising_and_slow_tasks_on_a_timed_pool(self, tmp_path):
        # Regression guard: a timeout that is set but not reached changes
        # nothing — a raise still retries, a slow task still completes.
        specs = [TaskSpec(fail_once, {"marker": str(tmp_path / "marker")},
                          label="flaky"),
                 TaskSpec(nap, {"delay_s": 0.4, "tag": 1}, label="slow")]
        with runtime.using(cache_enabled=False, parallel=2, retries=1,
                           backoff_s=0.0, task_timeout_s=5.0,
                           progress=False):
            flaky, slow = run_tasks(specs, name="timed")
        assert flaky.value == "recovered" and flaky.attempts == 2
        assert slow.value == {"tag": 1} and slow.attempts == 1
        _assert_no_orphans()

    def test_no_handoff_or_failure_leaves_the_running_set(self, tmp_path):
        # Every way a started task stops being a worker's — done, retried,
        # timed out, handed to the serial path because its value does not
        # pickle — takes it out of ``running``; an unpicklable *spec* never
        # enters it on the pool.
        path = tmp_path / "run.journal.jsonl"
        tel = Telemetry("mixed", 4, progress=False, journal=RunJournal(path))
        specs = [TaskSpec(lambda: "inline", {}, label="lambda-spec"),
                 TaskSpec(lock_value, {}, label="lock-value"),
                 TaskSpec(fail_once, {"marker": str(tmp_path / "marker")},
                          label="flaky"),
                 TaskSpec(sleep_forever, {}, label="hung")]
        with runtime.using(cache_enabled=False, parallel=2, retries=1,
                           backoff_s=0.0, task_timeout_s=0.5,
                           progress=False):
            inline, lock, flaky, hung = run_tasks(specs, name="mixed",
                                                  telemetry=tel)
        tel.journal.close()
        assert inline.value == "inline" and flaky.value == "recovered"
        assert lock.ok and hung.error == "timeout after 0.5s"
        assert tel.counts["running"] == 0
        events = load_journal(path).events
        assert events[-1]["event"] == "sweep_done"
        assert events[-1]["running"] == 0
        assert [e["event"] for e in events].count("degraded_to_serial") == 2
        _assert_no_orphans()

    def test_pooled_wall_s_is_run_time_not_queue_time(self):
        specs = [TaskSpec(nap, {"delay_s": 0.1, "tag": t}, label=f"nap[{t}]")
                 for t in range(12)]
        with runtime.using(cache_enabled=False, parallel=0, progress=False):
            serial = sum(r.wall_s for r in run_tasks(specs, name="wall"))
        with runtime.using(cache_enabled=False, parallel=2, progress=False):
            pooled = [r.wall_s for r in run_tasks(specs, name="wall")]
        assert all(w < 0.2 for w in pooled), pooled
        assert abs(sum(pooled) - serial) <= 0.25 * serial

    def test_idle_worker_found_dead_is_replaced_at_no_charge(self, tmp_path):
        busy_pid = tmp_path / "busy.pid"

        class KillTheIdleWorker(Telemetry):
            """On the first completion, SIGKILL the worker that just went
            idle (the other one is busy and said so in ``busy_pid``)."""
            killed = None

            def task_done(self, index, label, wall_s, payloads=None):
                super().task_done(index, label, wall_s, payloads)
                if self.killed is None:
                    (idle,) = [p for p in multiprocessing.active_children()
                               if p.pid != int(busy_pid.read_text())]
                    idle.kill()
                    # Dead (pipe closed) but not reaped: that is the pool's.
                    os.waitid(os.P_PID, idle.pid, os.WEXITED | os.WNOWAIT)
                    self.killed = idle.pid

        tel = KillTheIdleWorker("idle", 3, progress=False)
        specs = [TaskSpec(pid_after, {"delay_s": 1.0,
                                      "pidfile": str(busy_pid)}, label="busy"),
                 TaskSpec(pid_after, {"delay_s": 0.2}, label="first"),
                 TaskSpec(pid_after, {}, label="next")]
        with runtime.using(cache_enabled=False, parallel=2, retries=0,
                           progress=False):
            results = run_tasks(specs, name="idle", telemetry=tel)
        assert all(r.ok and r.attempts == 1 for r in results)
        assert tel.counts["retries"] == 0 and tel.counts["failed"] == 0
        assert results[1].value == tel.killed
        assert results[2].value not in (tel.killed, results[0].value)
        assert _pid_gone(tel.killed)
        _assert_no_orphans()

    def test_keyboard_interrupt_reaps_every_worker(self, tmp_path):
        # The second signal of a drain surfaces as KeyboardInterrupt from
        # inside the wait loop; busy workers are killed on the way out.
        class SecondSignal(Telemetry):
            def task_done(self, *args, **kwargs):
                raise KeyboardInterrupt

        (hung,), (pidfile,) = _sleepers(tmp_path, [0])
        specs = [hung, TaskSpec(nap, {"delay_s": 0.3}, label="nap")]
        tel = SecondSignal("ctrl-c", 2, progress=False)
        with runtime.using(cache_enabled=False, parallel=2, progress=False):
            with pytest.raises(KeyboardInterrupt):
                run_tasks(specs, name="ctrl-c", telemetry=tel)
        assert multiprocessing.active_children() == []
        assert _pid_gone(pidfile.read_text())

    def test_the_workarounds_are_gone_not_hidden(self, monkeypatch):
        import inspect

        from repro.runtime import scheduler
        from repro.runtime.config import check_env

        # The recycle knob is simply no longer read — even a hostile value.
        monkeypatch.setenv("REPRO_RECYCLE_AFTER", "soon")
        check_env()
        assert not hasattr(Telemetry, "pool_recycled")
        assert "recycles" not in Telemetry("t", 0, progress=False).counts
        assert list(inspect.signature(scheduler._call).parameters) \
            == ["spec", "names"]
        probe = ("import sys, repro.cli; "
                 "print('concurrent.futures' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
        assert proc.stdout.strip() == "False", proc.stderr


# ---------------------------------------------------------------------------
# Sweeps far larger than a pipe buffer
# ---------------------------------------------------------------------------

def _run_script(tmp_path, source, timeout):
    """Run ``source`` as ``__main__`` of a fresh interpreter (its task
    functions pickle by that name): a wedge or a dead parent is a timeout
    or an exit code here, not a hung or killed test suite."""
    script = tmp_path / "sweep.py"
    script.write_text(source)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for var in ("REPRO_SELFCHAOS", "REPRO_SELFCHAOS_DIR",
                "REPRO_JOURNAL", "REPRO_TRACE"):
        env.pop(var, None)
    return subprocess.run([sys.executable, str(script)], timeout=timeout,
                          capture_output=True, text=True, env=env,
                          cwd=str(REPO))


_BACKPRESSURE_SCRIPT = """\
from repro import runtime
from repro.runtime import TaskSpec, run_tasks

def tag(i, seed=1):
    return i

if __name__ == "__main__":
    n = 4000
    specs = [TaskSpec(tag, {"i": i}, label=f"t{i}") for i in range(n)]
    with runtime.using(cache_enabled=False, parallel=2, progress=False):
        results = run_tasks(specs, name="pipe")
    assert len(results) == n
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    print("OK", n)
"""


@pytest.mark.slow
class TestStartedMarkerBackpressure:
    def test_untimed_sweep_past_pipe_buffer_completes(self, tmp_path):
        # 4000 tasks move well past a pipe buffer (~64KiB) of specs and
        # replies with task_timeout_s unset (the default).  A side channel
        # the parent drained only under the timeout watchdog once wedged
        # exactly this sweep; with one task in flight per pipe nothing can
        # back up, and this keeps it so.  Run in a subprocess so a
        # regression is a timeout, not a hung suite.
        proc = _run_script(tmp_path, _BACKPRESSURE_SCRIPT, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "OK 4000" in proc.stdout


# ---------------------------------------------------------------------------
# graceful_shutdown: handler installation respects the host
# ---------------------------------------------------------------------------

class TestGracefulShutdownHandlers:
    @pytest.fixture()
    def restore_handlers(self):
        sigs = (signal.SIGINT, signal.SIGTERM)
        prior = {s: signal.getsignal(s) for s in sigs}
        yield
        for s, h in prior.items():
            if h is not None:
                signal.signal(s, h)

    def test_installs_and_restores_over_default_handlers(
            self, restore_handlers):
        signal.signal(signal.SIGINT, signal.default_int_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        with shutdown.graceful_shutdown():
            assert signal.getsignal(signal.SIGINT) \
                is not signal.default_int_handler
            assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_noop_when_host_installed_custom_handlers(self, restore_handlers):
        def host_handler(signum, frame):  # pragma: no cover - never fired
            pass

        signal.signal(signal.SIGINT, host_handler)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        with shutdown.graceful_shutdown():
            # The host routed SIGINT deliberately: both handlers are left
            # exactly as found (the documented no-op).
            assert signal.getsignal(signal.SIGINT) is host_handler
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL


# ---------------------------------------------------------------------------
# Torn-final-line tolerance: telemetry reader and trace validator
# ---------------------------------------------------------------------------

class TestTornTails:
    def test_telemetry_reader_skips_torn_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        tel = Telemetry("sweep", 1, progress=False, journal=RunJournal(path))
        tel.task_queued(0, "t0")
        tel.task_done(0, "t0", wall_s=0.1)
        tel.journal.close()
        with path.open("a") as fh:
            fh.write('{"t": 1.0, "event": "task_do')
        with pytest.warns(UserWarning, match="torn journal line"):
            state = load_journal(path)
        assert state.torn_lines == 1
        assert [e["event"] for e in state.events] \
            == ["sweep", "task_queued", "task_done"]

    def _trace_file(self, path):
        from repro.obs import trace as obs_trace
        tracer = obs_trace.Tracer()
        tracer.span("runtime", "demo", track="task/0", t0=0.0, t1=1.0)
        obs_trace.write_jsonl(path, tracer)
        return obs_trace

    def test_trace_validate_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace = self._trace_file(path)
        with path.open("a") as fh:
            fh.write('{"record": "span", "layer": "runt')
        with pytest.warns(UserWarning, match="torn"):
            info = obs_trace.validate_jsonl(path)
        assert info["torn"] == 1
        assert info["records"]["span"] == 1
        with pytest.warns(UserWarning, match="torn"):
            data = obs_trace.load_jsonl(path)
        assert data["torn"] == 1
        assert len(data["records"]) == 1

    def test_trace_validate_still_rejects_mid_file_garbage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        obs_trace = self._trace_file(path)
        lines = path.read_text().splitlines()
        lines.insert(1, "not json at all")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="not JSON"):
            obs_trace.validate_jsonl(path)


# ---------------------------------------------------------------------------
# End-to-end: SIGKILL mid-campaign, `repro resume`, byte-identical report
# ---------------------------------------------------------------------------

TINY_SPEC = {
    "schema": "repro.scenarios/v1",
    "name": "resilience_tiny",
    "description": "2-cell micro-matrix for kill-resume tests",
    "topology": {"kind": "clos", "rate_bps": 10_000_000_000},
    "workload": {"kind": "poisson", "distribution": "web_search",
                 "load": 0.2, "n_flows": 12,
                 "size_cap_bytes": 200_000},
    "timing": {"drain_ps": 50_000_000_000},
    "seeds": [1],
    "sweep": {"transport.protocol": ["expresspass", "dctcp"]},
    "report": {"compare": "transport.protocol"},
}


def _repro(args, tmp_path, chaos_env=None, check=True, cache="cache"):
    # Each logical run gets its own cache subdir (``cache=``): a baseline
    # must not warm the crash run's cache, or every cell cache-hits and the
    # chaos directive under test never fires.
    env = dict(os.environ,
               PYTHONPATH=str(REPO / "src"),
               REPRO_CACHE_DIR=str(tmp_path / cache),
               REPRO_PROGRESS="0")
    env.pop("REPRO_SELFCHAOS", None)
    env.pop("REPRO_SELFCHAOS_DIR", None)
    if chaos_env:
        env["REPRO_SELFCHAOS"] = chaos_env
        env["REPRO_SELFCHAOS_DIR"] = str(tmp_path / "chaos-markers")
    proc = subprocess.run([sys.executable, "-m", "repro"] + args,
                          capture_output=True, text=True, env=env,
                          cwd=str(REPO), timeout=600)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.slow
class TestKillResumeEndToEnd:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY_SPEC))
        return str(path)

    def test_parent_sigkill_then_resume_is_byte_identical(self, tmp_path,
                                                          spec_path):
        self._kill_then_resume(tmp_path, spec_path)

    def test_parent_sigkill_between_shared_fluid_tasks_resumes(self,
                                                               tmp_path):
        """Seed replicas share a task: the kill after the first *task*
        leaves three rows computed and three to go."""
        path = tmp_path / "fluid.json"
        path.write_text(json.dumps({
            "schema": "repro.scenarios/v1", "name": "resilience_fluid",
            "backend": "fluid", "topology": {"kind": "dumbbell"},
            "workload": {"kind": "persistent", "n_flows": 2},
            "timing": {"warmup_ps": 2_000_000_000,
                       "measure_ps": 2_000_000_000},
            "seeds": [1, 2, 3],
            "sweep": {"transport.protocol": ["expresspass", "dctcp"]}}))
        state = self._kill_then_resume(tmp_path, str(path))
        queued = [e for e in state.events if e["event"] == "task_queued"]
        assert [e["label"] for e in queued] == [
            "resilience_fluid[protocol=expresspass]",
            "resilience_fluid[protocol=dctcp]"] * 2     # two generations
        cells = [json.loads(line) for line in
                 (tmp_path / "resumed.jsonl").read_text().splitlines()]
        assert [c["seed"] for c in cells if c["record"] == "cell"] == \
            [1, 2, 3] * 2

    def _kill_then_resume(self, tmp_path, spec_path):
        baseline = tmp_path / "baseline.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        journal = tmp_path / "run.journal.jsonl"
        _repro(["matrix", spec_path,
                "--journal", str(tmp_path / "b.journal.jsonl"),
                "--report-jsonl", str(baseline)], tmp_path, cache="cache-a")

        crash = _repro(["matrix", spec_path, "--journal", str(journal),
                        "--report-jsonl", str(resumed)], tmp_path,
                       chaos_env="parent:kill=1", check=False,
                       cache="cache-b")
        assert crash.returncode == -signal.SIGKILL
        assert not resumed.exists()
        state = load_journal(journal)
        assert state.by_state("done") and state.unfinished()

        _repro(["resume", str(journal)], tmp_path, cache="cache-b")
        assert baseline.read_bytes() == resumed.read_bytes()
        state = load_journal(journal)
        assert state.generation == 1
        assert not state.unfinished()
        return state

    def test_worker_sigkill_recovers_within_the_run(self, tmp_path,
                                                    spec_path):
        baseline = tmp_path / "baseline.jsonl"
        survived = tmp_path / "survived.jsonl"
        _repro(["matrix", spec_path, "--journal",
                str(tmp_path / "b.journal.jsonl"),
                "--report-jsonl", str(baseline)], tmp_path, cache="cache-a")
        _repro(["matrix", spec_path, "--parallel", "2",
                "--journal", str(tmp_path / "w.journal.jsonl"),
                "--report-jsonl", str(survived)], tmp_path,
               chaos_env="task:kill=dctcp", cache="cache-b")
        assert baseline.read_bytes() == survived.read_bytes()

    def test_sigint_drains_to_exit_75_and_resumes(self, tmp_path, spec_path):
        journal = tmp_path / "run.journal.jsonl"
        report = tmp_path / "report.jsonl"
        baseline = tmp_path / "baseline.jsonl"
        _repro(["matrix", spec_path,
                "--journal", str(tmp_path / "b.journal.jsonl"),
                "--report-jsonl", str(baseline)], tmp_path, cache="cache-a")

        # parent:int=1 is a deterministic Ctrl-C: the scheduler SIGINTs
        # itself after its first completed cell, so the drain path runs
        # every time instead of racing an external timer.
        proc = _repro(["matrix", spec_path, "--journal", str(journal),
                       "--report-jsonl", str(report)], tmp_path,
                      chaos_env="parent:int=1", check=False,
                      cache="cache-b")
        assert proc.returncode == EXIT_INTERRUPTED, proc.stderr
        assert "resume with" in proc.stderr
        assert not report.exists()
        state = load_journal(journal)
        assert state.by_state("interrupted")

        _repro(["resume", str(journal)], tmp_path, cache="cache-b")
        assert baseline.read_bytes() == report.read_bytes()
