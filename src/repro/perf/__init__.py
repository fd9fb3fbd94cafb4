"""repro.perf — hot-path performance layer for the event core and ports.

The substrate's speed budget is spent in three places: the event heap
(schedule/pop/cancel), the :class:`~repro.net.port.Port` transmitter cycle
(``_try_send``/``_transmit``/``_tx_done``), and per-packet bookkeeping.
This package centralises the thresholds of the optimisations that keep
those paths fast, plus an opt-in profiler (:mod:`repro.perf.profile`) that
shows where events go.

Every optimisation is **behaviour-preserving**: golden traces and
``events_processed`` are bit-identical across the thresholds below
(``tests/test_perf.py`` pins ``COMPACT_MIN`` 0/1 and a hooked port against
the goldens).  They are plain constants, not user options; the tests
monkeypatch them to exercise the edges of the one path.

``COMPACT_MIN`` / ``COMPACT_RATIO``
    Lazy-deletion compaction: the scheduler rebuilds its heap in place once
    at least ``COMPACT_MIN`` cancelled entries have accumulated *and*
    cancelled entries outnumber live ones ``COMPACT_RATIO``-fold.  Bounds
    the heap at ~``(1 + COMPACT_RATIO) x live`` entries no matter how many
    timers are cancelled.

Four more have no threshold.  Events nobody can cancel
(:meth:`Simulator.schedule_unref`: wire deliveries, transmit completions)
are plain heap tuples — no Event object is built for them.  A port whose
queues are empty when it starts transmitting does not schedule its transmit
completion at all: it reserves the completion's tie-break key and pushes
the event only if a packet arrives before that position passes
(:mod:`repro.net.port`), so every surviving event pops exactly where it
always did while ``events_processed`` no longer counts completions nobody
waited for.  A packet that finds the line free and nothing waiting is not
queued either: ``Port.send`` accounts for the visit with one
``pass_through`` call and transmits in place, unless an attachment
observes the queue in between.  And a timer that is re-armed far more often
than it fires (:class:`repro.sim.engine.Timer`: the transports' RTO, the
port's credit-meter wake) keeps one heap entry instead of pushing and
cancelling one per arm, and fires in place when a re-arm kept its deadline.
The port's transmitter itself runs only when it can send: ``send`` and
``_tx_done`` skip the call when it would return at once or only arm the
wake.

Ports precompute a flags word over their optional attachments
(``phantom``/``rcp_controller``/``pfc``/hooks/...) and take a branch-free
transmit path while the word is zero; any attachment routes the port through
the fully-checked path (:mod:`repro.net.port`).
"""

from __future__ import annotations

#: Minimum cancelled-entry count before heap compaction is considered
#: (0 disables compaction entirely).
COMPACT_MIN: int = 256
#: Compact when cancelled entries exceed live entries by this factor.
COMPACT_RATIO: int = 1

__all__ = ["COMPACT_MIN", "COMPACT_RATIO"]
