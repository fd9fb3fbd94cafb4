"""Telemetry as the single lifecycle funnel: the run journal it writes.

The scheduler reports each task transition to :class:`Telemetry` once, and
every one of them lands in the run journal.  The resume contract is what a
journal *folds* to (``repro resume`` replays the frontier from it), so this
drives Telemetry through the transitions directly and compares the fold
with what the scheduler of the commit before the funnel wrote by hand for
the same sequence — a five-task serial sweep (cache hit; fail once then
succeed; fail for good; succeed; cut by a drain), ``retries=1``, dumped
once from that commit (journal schema v1) with keys and clocks replaced by
placeholders.
"""

from repro.resilience.journal import RunJournal, load_journal
from repro.runtime import Telemetry

#: The parent scheduler's v1 journal for the sequence, line by line (``t``,
#: ``pid`` and ``wall_s`` dropped).
PARENT_RECORDS = [
    {"record": "sweep", "name": "s", "total": 5},
    {"record": "task", "index": 0, "state": "done", "label": "hit",
     "key": "k0", "cached": True},
    {"record": "task", "index": 1, "state": "queued", "label": "flaky",
     "key": "k1"},
    {"record": "task", "index": 2, "state": "queued", "label": "bad",
     "key": "k2"},
    {"record": "task", "index": 3, "state": "queued", "label": "ok",
     "key": "k3"},
    {"record": "task", "index": 4, "state": "queued", "label": "never",
     "key": "k4"},
    {"record": "task", "index": 1, "state": "running", "label": "flaky",
     "attempt": 1},
    {"record": "task", "index": 1, "state": "running", "label": "flaky",
     "attempt": 2},
    {"record": "task", "index": 1, "state": "done", "label": "flaky",
     "key": "k1", "cached": False},
    {"record": "task", "index": 2, "state": "running", "label": "bad",
     "attempt": 1},
    {"record": "task", "index": 2, "state": "running", "label": "bad",
     "attempt": 2},
    {"record": "task", "index": 2, "state": "failed", "label": "bad",
     "error": "ValueError: nope", "attempts": 2},
    {"record": "task", "index": 3, "state": "running", "label": "ok",
     "attempt": 1},
    {"record": "task", "index": 3, "state": "done", "label": "ok",
     "key": "k3", "cached": False},
    {"record": "task", "index": 4, "state": "interrupted", "label": "never",
     "signal": "SIGINT"},
]

#: What :func:`load_journal` folds those lines to.
PARENT_FOLD = {
    (0, 0): PARENT_RECORDS[1],
    (0, 1): PARENT_RECORDS[8],
    (0, 2): PARENT_RECORDS[11],
    (0, 3): PARENT_RECORDS[13],
    (0, 4): PARENT_RECORDS[14],
}

#: What a fold must agree on for a resume to redo exactly the same tasks
#: and find the same cache entries.
CONTRACT = ("state", "key", "cached", "error", "attempts", "signal")


def _drive(tel: Telemetry) -> None:
    """The telemetry calls the serial scheduler makes for the sequence."""
    labels = ["hit", "flaky", "bad", "ok", "never"]
    for i, label in enumerate(labels):
        tel.task_queued(i, label, f"k{i}")
        if i == 0:
            tel.cache_hit(i, label)
        else:
            tel.cache_miss(i, label)
    tel.task_started(1, "flaky", 1)
    tel.task_retry(1, "flaky", 1, "RuntimeError: boom")
    tel.task_deferred(1, "flaky", 0.0)
    tel.task_resubmitted(1, "flaky", 2)
    tel.task_started(1, "flaky", 2)
    tel.task_done(1, "flaky", 0.25)
    tel.task_started(2, "bad", 1)
    tel.task_retry(2, "bad", 1, "ValueError: nope")
    tel.task_deferred(2, "bad", 0.0)
    tel.task_resubmitted(2, "bad", 2)
    tel.task_started(2, "bad", 2)
    tel.task_failed(2, "bad", "ValueError: nope", 2)
    tel.task_started(3, "ok", 1)
    tel.task_done(3, "ok", 0.5)
    tel.task_interrupted(4, "never", "SIGINT")
    tel.close()


def _contract(record: dict) -> dict:
    return {k: record[k] for k in CONTRACT if k in record}


def test_journal_through_telemetry_keeps_the_resume_contract(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = RunJournal(path)
    _drive(Telemetry("s", 5, progress=False, journal=journal))
    journal.close()

    state = load_journal(path)
    assert state.torn_lines == 0
    assert {k: _contract(r) for k, r in state.tasks.items()} \
        == {k: _contract(r) for k, r in PARENT_FOLD.items()}
    assert {k: r["label"] for k, r in state.tasks.items()} \
        == {k: r["label"] for k, r in PARENT_FOLD.items()}
    summary = state.summary()
    assert (summary["done"], summary["failed"], summary["interrupted"]) \
        == (3, 1, 1)
    assert state.unfinished() == [4]          # exactly what resume redoes
    assert state.tasks[(0, 1)]["wall_s"] == 0.25

    # On disk it is every transition Telemetry was told about, one
    # ``{"t", "event", ...}`` line each, in the order they happened.
    kinds = [e["event"] for e in state.events]
    assert kinds[0] == "sweep" and kinds[-1] == "sweep_done"
    assert kinds[1:11] == ["task_queued", "cache_hit"] \
        + ["task_queued", "cache_miss"] * 4
    assert kinds[11:17] == ["task_started", "task_retry", "task_deferred",
                            "task_resubmitted", "task_started", "task_done"]
    assert len(kinds) == 27     # the opener + one line per _drive call
    assert all(set(e) >= {"t", "event"} for e in state.events)
    done = state.events[-1]
    assert (done["done"], done["retries"], done["cache_hits"]) == (3, 2, 1)


def test_without_a_journal_the_sink_is_inert(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    tel = Telemetry("s", 5, progress=False)
    assert tel.journal is None
    _drive(tel)
    assert tel.counts["done"] == 3 and tel.counts["interrupted"] == 1
    assert list(tmp_path.iterdir()) == []
