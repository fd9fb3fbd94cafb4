"""Port-level queueing primitives.

* :class:`TokenBucket` — Broadcom-style maximum-bandwidth metering, used to
  rate-limit credit packets to ≈5 % of link capacity (burst = 2 credits).
* :class:`DataQueue` — drop-tail FIFO with optional ECN marking at a byte
  threshold (DCTCP) and time-weighted occupancy statistics.
* :class:`CreditQueue` — the tiny (default 8-credit) carved buffer for credit
  packets; overflowing credits are *dropped*, which is the congestion signal
  ExpressPass feeds back to receivers.
* :class:`PhantomQueue` — HULL's virtual queue draining at γ·C; marks ECN on
  the real packets while the real queue stays near-empty.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.packet import Packet
from repro.sim.units import SEC


#: Internal token scale: one byte of tokens == ``8 * SEC`` quanta.  At this
#: scale a refill over ``dt`` picoseconds adds exactly ``dt * rate_bps``
#: quanta, so all bucket arithmetic is integer-exact — no float rounding can
#: make :meth:`TokenBucket.time_until` come up a picosecond short.
_TOKEN_SCALE = 8 * SEC


class TokenBucket:
    """Token bucket metering in bytes, with integer-exact accounting.

    ``rate_bps`` is the fill rate; ``burst_bytes`` caps accumulation.  Tokens
    are tracked lazily: :meth:`refill` advances the bucket to the current
    simulation time.  :meth:`try_consume` and :meth:`time_until` run once
    per credit per hop, so each carries its own copy of the refill (the
    same integer operations, no extra frame); :meth:`refill` itself serves
    :meth:`set_rate` and the auditor's mirror.  Internally tokens are
    integers in units of
    ``1 / (8 * SEC)`` bytes, which makes refill, consume, and
    :meth:`time_until` exact: ``try_consume(n, now + time_until(n, now))``
    always succeeds, so a port sleeping on the bucket wakes exactly once.

    ``now_ps`` seeds the bucket's notion of "now".  A bucket created
    mid-simulation must pass the creating context's current time, otherwise
    a ``start_full=False`` bucket would retroactively accrue tokens for the
    whole of ``[0, now]`` on its first refill.
    """

    __slots__ = ("rate_bps", "burst_bytes", "_tokens_scaled", "_burst_scaled",
                 "_last_ps")

    def __init__(self, rate_bps: int, burst_bytes: float,
                 start_full: bool = True, now_ps: int = 0):
        if rate_bps <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate_bps = rate_bps
        self.burst_bytes = float(burst_bytes)
        self._burst_scaled = int(burst_bytes * _TOKEN_SCALE)
        self._tokens_scaled = self._burst_scaled if start_full else 0
        self._last_ps = now_ps

    @property
    def tokens(self) -> float:
        """Current token level in bytes (float view of the exact state)."""
        return self._tokens_scaled / _TOKEN_SCALE

    @tokens.setter
    def tokens(self, value: float) -> None:
        self._tokens_scaled = int(value * _TOKEN_SCALE)

    def refill(self, now_ps: int) -> None:
        """Advance the bucket to ``now_ps``."""
        if now_ps > self._last_ps:
            tokens = self._tokens_scaled + (now_ps - self._last_ps) * self.rate_bps
            burst = self._burst_scaled
            self._tokens_scaled = tokens if tokens < burst else burst
            self._last_ps = now_ps

    def try_consume(self, nbytes: int, now_ps: int) -> bool:
        """Consume ``nbytes`` of tokens if available; return success."""
        tokens = self._tokens_scaled
        if now_ps > self._last_ps:  # refill(now_ps), inlined
            tokens += (now_ps - self._last_ps) * self.rate_bps
            burst = self._burst_scaled
            if tokens > burst:
                tokens = burst
            self._last_ps = now_ps
        need = nbytes * _TOKEN_SCALE
        if tokens >= need:
            self._tokens_scaled = tokens - need
            return True
        self._tokens_scaled = tokens
        return False

    def time_until(self, nbytes: int, now_ps: int) -> int:
        """Picoseconds until ``nbytes`` of tokens will be available.

        Exact: consuming ``nbytes`` at ``now_ps + time_until(...)`` succeeds.
        """
        tokens = self._tokens_scaled
        if now_ps > self._last_ps:  # refill(now_ps), inlined
            tokens += (now_ps - self._last_ps) * self.rate_bps
            burst = self._burst_scaled
            if tokens > burst:
                tokens = burst
            self._tokens_scaled = tokens
            self._last_ps = now_ps
        deficit = nbytes * _TOKEN_SCALE - tokens
        if deficit <= 0:
            return 0
        return -(-deficit // self.rate_bps)

    def set_rate(self, rate_bps: int, now_ps: int) -> None:
        """Change the fill rate mid-run (chaos meter misconfiguration).

        Tokens accrued at the old rate are settled up to ``now_ps`` first,
        so the change takes effect exactly at ``now_ps`` and the integer
        accounting stays exact on both sides of it.
        """
        if rate_bps <= 0:
            raise ValueError("token bucket rate must be positive")
        self.refill(now_ps)
        self._last_ps = max(self._last_ps, now_ps)
        self.rate_bps = rate_bps


class _QueueStats:
    """Shared occupancy bookkeeping: drops, max, and time-weighted average.

    ``birth_ps`` is the queue's creation time; the time-weighted average is
    taken over the queue's actual observation window ``[birth, now]``.  A
    queue created mid-run (e.g. a port's lazily-built low-priority queue)
    must pass its creation time, or its average would be diluted by the
    pre-birth interval it never observed.
    The owning queue updates the fields inline (twice per packet per hop:
    a method here would be the hot path's most frequent frame).
    """

    __slots__ = ("enqueued", "dropped", "ecn_marked", "max_bytes", "max_pkts",
                 "_integral_byte_ps", "_last_change_ps", "_last_bytes",
                 "_birth_ps")

    def __init__(self, birth_ps: int = 0):
        self.enqueued = 0
        self.dropped = 0
        self.ecn_marked = 0
        self.max_bytes = 0
        self.max_pkts = 0
        self._integral_byte_ps = 0
        self._last_change_ps = birth_ps
        self._last_bytes = 0
        self._birth_ps = birth_ps

    def average_bytes(self, now_ps: int) -> float:
        """Time-weighted average occupancy over the window [birth, now]."""
        window = now_ps - self._birth_ps
        if window <= 0:
            return 0.0
        total = self._integral_byte_ps + self._last_bytes * (now_ps - self._last_change_ps)
        return total / window


class DataQueue:
    """Drop-tail FIFO with optional ECN marking on enqueue.

    Two marking modes:

    * ``ecn_threshold_bytes`` — DCTCP's instantaneous step marking: an
      arriving ECN-capable packet is marked when the occupancy (including
      itself) exceeds the threshold.
    * :meth:`set_red_marking` — RED-style probabilistic marking between
      ``kmin`` and ``kmax`` (DCQCN's switch configuration); above ``kmax``
      every ECN-capable packet is marked.
    """

    __slots__ = ("capacity_bytes", "ecn_threshold_bytes",
                 "_red_kmin", "_red_kmax", "_red_pmax", "_red_rng",
                 "_q", "bytes", "stats")

    def __init__(self, capacity_bytes: int, ecn_threshold_bytes: Optional[int] = None,
                 birth_ps: int = 0):
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._red_kmin = None
        self._red_kmax = None
        self._red_pmax = 0.0
        self._red_rng = None
        self._q: deque = deque()
        self.bytes = 0
        self.stats = _QueueStats(birth_ps)

    def set_red_marking(self, kmin_bytes: int, kmax_bytes: int,
                        pmax: float, rng) -> None:
        """Enable RED/DCQCN-style probabilistic ECN marking."""
        if not 0 <= kmin_bytes < kmax_bytes:
            raise ValueError("need 0 <= kmin < kmax")
        if not 0 < pmax <= 1:
            raise ValueError("pmax must be in (0, 1]")
        self._red_kmin = kmin_bytes
        self._red_kmax = kmax_bytes
        self._red_pmax = pmax
        self._red_rng = rng

    def __len__(self) -> int:
        return len(self._q)

    def _mark(self, pkt: Packet, occupancy: int) -> None:
        """ECN-mark an ECN-capable arrival that brings the queue to
        ``occupancy`` bytes (itself included)."""
        if (self.ecn_threshold_bytes is not None
                and occupancy > self.ecn_threshold_bytes):
            pkt.ecn_marked = True
            self.stats.ecn_marked += 1
        elif self._red_kmin is not None and occupancy > self._red_kmin:
            if occupancy >= self._red_kmax:
                pkt.ecn_marked = True
                self.stats.ecn_marked += 1
            else:
                frac = (occupancy - self._red_kmin) / (
                    self._red_kmax - self._red_kmin)
                if self._red_rng.random() < frac * self._red_pmax:
                    pkt.ecn_marked = True
                    self.stats.ecn_marked += 1

    def enqueue(self, pkt: Packet, now_ps: int) -> bool:
        """Append ``pkt``; returns False (and counts a drop) on overflow."""
        stats = self.stats
        occupancy = self.bytes + pkt.wire_bytes
        if occupancy > self.capacity_bytes:
            stats.dropped += 1
            return False
        q = self._q
        q.append(pkt)
        stats.enqueued += 1
        if pkt.ecn_capable:
            self._mark(pkt, occupancy)
        stats._integral_byte_ps += stats._last_bytes * (now_ps - stats._last_change_ps)
        stats._last_change_ps = now_ps
        self.bytes = stats._last_bytes = occupancy
        if occupancy > stats.max_bytes:
            stats.max_bytes = occupancy
        if len(q) > stats.max_pkts:
            stats.max_pkts = len(q)
        return True

    def dequeue(self, now_ps: int) -> Optional[Packet]:
        q = self._q
        if not q:
            return None
        pkt = q.popleft()
        stats = self.stats
        stats._integral_byte_ps += stats._last_bytes * (now_ps - stats._last_change_ps)
        stats._last_change_ps = now_ps
        self.bytes = stats._last_bytes = self.bytes - pkt.wire_bytes
        return pkt

    def pass_through(self, pkt: Packet, now_ps: int) -> bool:
        """Account for ``pkt`` entering and at once leaving an *empty* queue:
        exactly what :meth:`enqueue` then :meth:`dequeue` at one instant
        leave behind (drop, marks and RNG draw at an occupancy of the packet
        alone, maxima, last-change time; the integral gains ``0 * dt``
        twice), without touching the deque.  Returns False on a drop."""
        stats = self.stats
        wire = pkt.wire_bytes
        if wire > self.capacity_bytes:
            stats.dropped += 1
            return False
        stats.enqueued += 1
        if pkt.ecn_capable:
            self._mark(pkt, wire)
        stats._last_change_ps = now_ps
        if wire > stats.max_bytes:
            stats.max_bytes = wire
        if not stats.max_pkts:
            stats.max_pkts = 1
        return True


class CreditQueue:
    """The carved credit buffer: a tiny drop-tail FIFO measured in packets.

    The paper assigns four to eight credit packets per port via buffer
    carving; dropping the excess *is the feedback signal*, so drops are
    counted per flow by the owning port.
    """

    __slots__ = ("capacity_pkts", "_q", "bytes", "stats")

    def __init__(self, capacity_pkts: int = 8, birth_ps: int = 0):
        if capacity_pkts < 1:
            raise ValueError("credit queue needs capacity of at least 1 packet")
        self.capacity_pkts = capacity_pkts
        self._q: deque = deque()
        self.bytes = 0
        self.stats = _QueueStats(birth_ps)

    def __len__(self) -> int:
        return len(self._q)

    def enqueue(self, pkt: Packet, now_ps: int) -> bool:
        q = self._q
        stats = self.stats
        if len(q) >= self.capacity_pkts:
            stats.dropped += 1
            return False
        q.append(pkt)
        stats.enqueued += 1
        stats._integral_byte_ps += stats._last_bytes * (now_ps - stats._last_change_ps)
        stats._last_change_ps = now_ps
        self.bytes = stats._last_bytes = occupancy = self.bytes + pkt.wire_bytes
        if occupancy > stats.max_bytes:
            stats.max_bytes = occupancy
        if len(q) > stats.max_pkts:
            stats.max_pkts = len(q)
        return True

    def head(self) -> Optional[Packet]:
        return self._q[0] if self._q else None

    def dequeue(self, now_ps: int) -> Optional[Packet]:
        q = self._q
        if not q:
            return None
        pkt = q.popleft()
        stats = self.stats
        stats._integral_byte_ps += stats._last_bytes * (now_ps - stats._last_change_ps)
        stats._last_change_ps = now_ps
        self.bytes = stats._last_bytes = self.bytes - pkt.wire_bytes
        return pkt

    def pass_through(self, pkt: Packet, now_ps: int) -> bool:
        """:meth:`DataQueue.pass_through` for credits.  An empty credit
        queue never overflows (``capacity_pkts >= 1``), so always True."""
        stats = self.stats
        stats.enqueued += 1
        stats._last_change_ps = now_ps
        if pkt.wire_bytes > stats.max_bytes:
            stats.max_bytes = pkt.wire_bytes
        if not stats.max_pkts:
            stats.max_pkts = 1
        return True


class PhantomQueue:
    """HULL's phantom (virtual) queue.

    A byte counter drains at ``gamma`` × link rate; each arriving data packet
    adds its wire size.  When the counter exceeds ``mark_threshold_bytes``
    the packet is ECN-marked even though the *real* queue may be empty —
    capping utilization below capacity to keep latency near zero.
    """

    __slots__ = ("drain_bps", "mark_threshold_bytes", "vbytes", "_last_ps", "marks")

    def __init__(self, link_rate_bps: int, gamma: float = 0.95,
                 mark_threshold_bytes: int = 3_000):
        if not 0 < gamma <= 1:
            raise ValueError("gamma must be in (0, 1]")
        self.drain_bps = int(link_rate_bps * gamma)
        self.mark_threshold_bytes = mark_threshold_bytes
        self.vbytes = 0.0
        self._last_ps = 0
        self.marks = 0

    def on_arrival(self, pkt: Packet, now_ps: int) -> None:
        """Account ``pkt`` against the virtual queue, marking if over threshold."""
        if now_ps > self._last_ps:
            self.vbytes = max(
                0.0, self.vbytes - (now_ps - self._last_ps) * self.drain_bps / (8 * SEC)
            )
            self._last_ps = now_ps
        self.vbytes += pkt.wire_bytes
        if self.vbytes > self.mark_threshold_bytes and pkt.ecn_capable:
            pkt.ecn_marked = True
            self.marks += 1
