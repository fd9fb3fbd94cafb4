"""Multiple traffic classes for credits (§7 "Multiple traffic classes").

The paper observes that QoS for data can be enforced on the *credit* path:
prioritizing flow A's credits over flow B's — while metering their sum —
yields strict priority of A's data on the reverse path; weighted sharing of
the credit meter yields weighted data shares.

:class:`ClassifiedCreditQueues` replaces a port's single credit queue with
one carved queue per class, drained through the same token bucket using
either strict priority or weighted deficit round-robin.  Installation is a
one-call retrofit on an existing port::

    install_credit_classes(port, weights={0: 3, 1: 1})
    flow.credit_class = 1     # any ExpressPass flow can be tagged

Untagged credits map to class 0.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.packet import CREDIT_WIRE_MIN, Packet
from repro.net.port import Port
from repro.net.queues import CreditQueue


class ClassifiedCreditQueues:
    """Per-class carved credit queues with strict-priority or WDRR drain."""

    def __init__(self, weights: Dict[int, float], capacity_pkts: int = 8,
                 strict_priority: bool = False, birth_ps: int = 0):
        if not weights:
            raise ValueError("need at least one credit class")
        if any(w <= 0 for w in weights.values()):
            raise ValueError("class weights must be positive")
        self.weights = dict(weights)
        self.strict_priority = strict_priority
        self.queues: Dict[int, CreditQueue] = {
            cls: CreditQueue(capacity_pkts, birth_ps) for cls in weights
        }
        # Deficit counters for WDRR, in bytes.
        self._deficit: Dict[int, float] = {cls: 0.0 for cls in weights}
        self._order = sorted(weights)  # low class id = high priority
        self._quantum = CREDIT_WIRE_MIN
        self._rr_idx = 0
        self._visit_topped = False

    def classify(self, pkt: Packet) -> int:
        cls = getattr(pkt.flow, "credit_class", 0)
        return cls if cls in self.queues else self._order[0]

    def enqueue(self, pkt: Packet, now_ps: int) -> bool:
        return self.queues[self.classify(pkt)].enqueue(pkt, now_ps)

    def __len__(self) -> int:
        return sum(len(q) for q in self.queues.values())

    @property
    def bytes(self) -> int:
        return sum(q.bytes for q in self.queues.values())

    def head(self) -> Optional[Packet]:
        """The credit the scheduler would send next, or None."""
        cls = self._select()
        return self.queues[cls].head() if cls is not None else None

    def dequeue(self, now_ps: int) -> Optional[Packet]:
        cls = self._select()
        if cls is None:
            return None
        if not self.strict_priority:
            # Charge the deficit; replenish all counters one quantum per
            # dequeue round so ratios follow the weights.
            pkt = self.queues[cls].dequeue(now_ps)
            self._deficit[cls] -= pkt.wire_bytes
            return pkt
        return self.queues[cls].dequeue(now_ps)

    def _select(self) -> Optional[int]:
        backlogged = [cls for cls in self._order if len(self.queues[cls])]
        if not backlogged:
            return None
        if self.strict_priority:
            return backlogged[0]
        # Deficit round-robin: each *visit* tops a class's deficit up by
        # quantum x weight exactly once; the class keeps the token while its
        # deficit covers its head credit, then the pointer advances.  Long-
        # run service therefore follows the weights.
        n = len(self._order)
        for _ in range(2 * n + 1):
            cls = self._order[self._rr_idx]
            queue = self.queues[cls]
            if not len(queue):
                self._deficit[cls] = 0.0  # empty queues do not bank credit
                self._advance()
                continue
            if self._deficit[cls] >= queue.head().wire_bytes:
                return cls
            if not self._visit_topped:
                self._visit_topped = True
                self._deficit[cls] += self._quantum * self.weights[cls]
                if self._deficit[cls] >= queue.head().wire_bytes:
                    return cls
            self._advance()
        return backlogged[0]  # pragma: no cover - tiny-weight fallback

    def _advance(self) -> None:
        self._rr_idx = (self._rr_idx + 1) % len(self._order)
        self._visit_topped = False

    def drop_stats(self) -> Dict[int, int]:
        return {cls: q.stats.dropped for cls, q in self.queues.items()}

    @property
    def stats(self) -> "_AggregateStats":
        """Aggregate view matching the single-queue stats interface."""
        return _AggregateStats(self.queues.values())


class _AggregateStats:
    """Sums enqueue/drop counters across the per-class queues."""

    def __init__(self, queues):
        self._queues = list(queues)

    @property
    def dropped(self) -> int:
        return sum(q.stats.dropped for q in self._queues)

    @property
    def enqueued(self) -> int:
        return sum(q.stats.enqueued for q in self._queues)


def install_credit_classes(port: Port, weights: Dict[int, float],
                           capacity_pkts: int = 8,
                           strict_priority: bool = False) -> ClassifiedCreditQueues:
    """Swap ``port``'s credit queue for classified queues; returns them.

    The port's transmitter only uses ``head``/``enqueue``/``dequeue``/
    ``bytes``, so the classified implementation is a drop-in replacement.
    The classes observe time from now (the port may be mid-run); credits
    waiting in the replaced queue would vanish uncounted, so it must be empty.
    """
    if len(port.credit_queue):
        raise ValueError(f"{port.name}: cannot install credit classes over "
                         f"{len(port.credit_queue)} waiting credit(s)")
    classified = ClassifiedCreditQueues(weights, capacity_pkts, strict_priority,
                                        birth_ps=port.sim.now)
    port.credit_queue = classified
    return classified
