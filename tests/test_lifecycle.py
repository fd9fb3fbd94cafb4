"""Telemetry as the single lifecycle funnel: the journal sink.

The scheduler reports each task transition to :class:`Telemetry` once;
the run journal is one of its sinks.  The resume contract is what a
journal *folds* to (``repro resume`` replays the frontier from it), so this
drives Telemetry through the transitions directly and compares the fold
with what the scheduler of the commit before the funnel wrote by hand for
the same sequence — a five-task serial sweep (cache hit; fail once then
succeed; fail for good; succeed; cut by a drain), ``retries=1``, dumped
once from that commit with keys and clocks replaced by placeholders.
"""

import json

from repro.resilience.journal import RunJournal, load_journal
from repro.runtime import Telemetry

#: The parent scheduler's journal for the sequence, line by line (``t``,
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

VOLATILE = ("t", "wall_s")


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


def _stable(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in VOLATILE}


def test_journal_through_telemetry_keeps_the_resume_contract(tmp_path):
    path = tmp_path / "j.jsonl"
    journal = RunJournal(path)
    _drive(Telemetry("s", 5, progress=False, journal=journal))
    journal.close()

    state = load_journal(path)
    assert state.torn_lines == 0
    assert {k: _stable(r) for k, r in state.tasks.items()} == PARENT_FOLD
    assert [_stable(n) for n in state.notes] == [PARENT_RECORDS[0]]
    summary = state.summary()
    assert (summary["done"], summary["failed"], summary["interrupted"]) \
        == (3, 1, 1)
    assert state.unfinished() == [4]          # exactly what resume redoes
    assert state.tasks[(0, 1)]["wall_s"] == 0.25

    # Line for line the journal is the parent's, plus one ``queued`` line
    # ahead of the cache hit (a hit is now announced like any other task
    # before the cache answers; the fold is unaffected — last state wins).
    written = [_stable(json.loads(line))
               for line in path.read_text().splitlines()]
    extra = {"record": "task", "index": 0, "state": "queued",
             "label": "hit", "key": "k0"}
    assert written == PARENT_RECORDS[:1] + [extra] + PARENT_RECORDS[1:]


def test_without_a_journal_the_sink_is_inert(tmp_path):
    tel = Telemetry("s", 5, progress=False,
                    jsonl_path=tmp_path / "events.jsonl")
    assert tel.journal is None
    _drive(tel)
    assert tel.counts["done"] == 3 and tel.counts["interrupted"] == 1
    assert not (tmp_path / "j.jsonl").exists()
