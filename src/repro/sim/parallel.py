"""repro.sim.parallel — one simulation sharded across worker processes.

Conservative parallel discrete-event simulation (null-message / LBTS
style) for the packet engine: the topology is partitioned into *shards*,
each worker process executes only the nodes its shard owns, and the
parent coordinates barrier-synchronized *windows* of simulated time whose
length is the static **lookahead** — the minimum latency any packet needs
to cross a cut link.  Within a window no shard can affect another, so all
shards run concurrently; at the barrier, packets that crossed the cut are
exchanged and the next window begins.

The headline property is **bit-identity with serial execution**: a
sharded run pops the same events in the same order and produces the same
golden-trace digests, audit verdicts, and metric rows as
``Simulator.run`` in one process.  Three mechanisms carry that:

*Replicated construction.*  Every worker builds the *full* topology and
all flows with the same seed, so node ids, flow ids, port numbers, and
ECMP tables are identical replicas.  Ownership is then subtractive: a
non-owned node's ``receive`` is stubbed out and a non-owned flow's start
event is cancelled, which silences exactly the event chains the owning
shard runs for real.  (Event chains in this engine are rooted either in a
flow's start event — executed by the shard owning ``flow.src`` — or in a
packet reception at a node, so node ownership covers everything else.)

*Order-preserving keys.*  The serial engine breaks same-picosecond ties
with one global sequence counter, which two processes cannot share.
:class:`ShardSimulator` instead keys entries by
``(time, (sched_time, tier, ...))`` where ``sched_time`` is the clock
value at the instant the event was scheduled: for local events that order
is provably identical to the serial sequence order (the clock is
non-decreasing across schedule calls), and a cross-shard arrival carries
its sender-side ``sched_time`` so it sorts against local events exactly
where the serial wire-delivery event — scheduled at that same instant —
would have sorted.  Remaining exact ties (same arrival time *and* same
scheduling picosecond) are resolved by a fixed tier convention, validated
empirically by the golden bit-identity tests.

*Lookahead from the wire.*  A packet transmitted at ``T`` over a cut link
arrives at ``T + tx_time + prop_delay > T + prop_delay``, so the minimum
cut-link propagation delay is a sound window length that survives chaos
plans retuning rates mid-run.  Messages generated inside a window always
arrive strictly after it, hence injecting them at the barrier is never
late.

Known v1 limitations (checked or warned, never silent):

* PFC pause signalling schedules directly onto a *neighbor's* port with
  no interposable wire crossing; sharding refuses topologies where a PFC
  node sits on a cut.
* ``Flow.rehash_path`` mutates the replica hash only in the shard that
  runs it, so transit shards keep routing by the stale hash.  Runs where
  any rehash fired are flagged in :attr:`ShardedRun.warnings`.
* Named ``sim.rng`` streams are per-replica; a stream consumed in two or
  more shards draws in a different order than serial and is flagged in
  :attr:`ShardedRun.warnings`.  Per-entity streams (``rng_for``) and the
  per-burst chaos streams are immune by construction.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import pickle
import random
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.packet import Packet, PacketKind
from repro.resilience import selfchaos
from repro.sim.engine import (
    _NO_LIMIT, Event, Simulator, _heappush, _new_raw)
from repro.sim.units import tx_time_ps


def _shard_heartbeat_s() -> float:
    """Worker heartbeat period (``REPRO_SHARD_HEARTBEAT`` seconds)."""
    from repro.runtime.config import env_number
    return max(0.05, env_number("REPRO_SHARD_HEARTBEAT"))


def _shard_deadline_s() -> float:
    """Hung-shard watchdog deadline (``REPRO_SHARD_DEADLINE`` seconds).

    Measured since the shard's last message (heartbeats included), so a
    window may compute for minutes without tripping it — only a worker
    whose heartbeat thread has gone silent is declared hung.
    """
    from repro.runtime.config import env_number
    return max(0.5, env_number("REPRO_SHARD_DEADLINE"))

__all__ = [
    "ShardContext",
    "ShardSimulator",
    "ShardedRun",
    "cut_lookahead_ps",
    "partition_nodes",
    "run_sharded",
]


class ShardSimulator(Simulator):
    """A :class:`Simulator` whose tie-break keys survive sharding.

    Entry keys become ``(sched_now, 0, seq)`` — the extra ``sched_now`` (the
    clock when the event was scheduled, or its key reserved) is what lets a
    cross-shard arrival, pushed by the worker loop through
    :meth:`push_reserved` under ``(sender_sched_now, 1, src_shard,
    src_seq)``, take the exact queue position the serial run's
    locally-scheduled delivery would have had: the tier ``1`` ranks it
    after local events scheduled at the same picosecond (serial would have
    interleaved by a shared counter; the convention must merely be
    *fixed*), and ``(src_shard, src_seq)`` makes same-instant arrivals from
    different senders deterministic.  For purely local events the
    order is unchanged from serial: the clock is non-decreasing over
    schedule calls, so ``(sched_now, 0, seq)`` sorts identically to ``seq``
    alone.  The run loops, compaction, and ``peek_time`` never look inside
    ``entry[1]``, so the widened key is invisible to them; keys are always
    unique, so entry comparisons never fall through to what follows them.
    """

    _KEY_END = (_NO_LIMIT,)

    # Each override mirrors its base verbatim except for the key — the
    # engine inlines entry construction for speed, and so do we.

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        event = _new_raw(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.state = 0
        event.sim = self
        _heappush(self._heap, (time, (self.now, 0, next(self._seq)), event))
        return event

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})")
        event = _new_raw(Event)
        event.time = time
        event.fn = fn
        event.args = args
        event.state = 0
        event.sim = self
        _heappush(self._heap, (time, (self.now, 0, next(self._seq)), event))
        return event

    def schedule_unref(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        now = self.now
        _heappush(self._heap,
                  (now + delay, (now, 0, next(self._seq)), None, fn, args))

    def reserve_key(self) -> tuple:
        return (self.now, 0, next(self._seq))


# ---------------------------------------------------------------------------
# Topology partitioning
# ---------------------------------------------------------------------------

def partition_nodes(net, n_shards: int, topo=None) -> Dict[int, int]:
    """Deterministically map every node id to a shard in ``[0, n_shards)``.

    Fat-tree / Clos topologies (anything exposing ``cores`` and ``tors``)
    get the structural split: each pod (a connected component of the
    non-core subgraph) is a unit, pods are dealt round-robin over shards
    ``0..n_shards-2``, and the core layer forms the last shard — with
    ``n_shards == k + 1`` that is one shard per pod plus a core shard.
    Everything else falls back to recursive min-cut bisection (BFS seed
    split plus Kernighan–Lin-style greedy refinement), which finds e.g.
    the dumbbell's single-link cut.

    Pure function of the (replicated) topology, so every worker computes
    the identical map; the effective shard count may come out lower than
    requested on unsplittable graphs.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    n_shards = min(n_shards, len(net.nodes))
    if n_shards <= 1:
        return {nid: 0 for nid in net.nodes}
    cores = getattr(topo, "cores", None)
    if cores and getattr(topo, "tors", None):
        return _pod_partition(net, cores, n_shards)
    return _mincut_partition(net, n_shards)


def _pod_partition(net, cores, n_shards: int) -> Dict[int, int]:
    core_ids = {c.id for c in cores}
    owner = {cid: n_shards - 1 for cid in core_ids}
    seen = set(core_ids)
    pods: List[List[int]] = []
    for root in sorted(net.nodes):
        if root in seen:
            continue
        pod = [root]
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in net.nodes[u].ports:
                if v not in seen and v not in core_ids:
                    seen.add(v)
                    pod.append(v)
                    stack.append(v)
        pods.append(pod)
    groups = max(1, n_shards - 1)
    for i, pod in enumerate(pods):
        for nid in pod:
            owner[nid] = i % groups
    return owner


def _mincut_partition(net, n_shards: int) -> Dict[int, int]:
    adj = {nid: set(net.nodes[nid].ports) for nid in net.nodes}
    parts: List[List[int]] = [sorted(adj)]
    while len(parts) < n_shards:
        parts.sort(key=lambda p: (-len(p), p[0]))
        big = parts[0]
        if len(big) < 2:
            break
        parts.pop(0)
        a, b = _bisect(adj, big)
        parts.append(a)
        parts.append(b)
    parts.sort(key=lambda p: p[0])
    return {nid: s for s, part in enumerate(parts) for nid in part}


def _bisect(adj, nodes: List[int]) -> Tuple[List[int], List[int]]:
    """Split ``nodes`` into two balanced halves, greedily minimizing cut."""
    present = set(nodes)
    order: List[int] = []
    seen = set()
    for root in sorted(nodes):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            order.append(u)
            for v in sorted(adj[u]):
                if v in present and v not in seen:
                    seen.add(v)
                    queue.append(v)
    half = len(order) // 2
    side = {nid: (0 if i < half else 1) for i, nid in enumerate(order)}
    sizes = [half, len(order) - half]
    min_side = max(1, half - max(1, len(order) // 4))

    def gain(nid: int) -> int:
        s = side[nid]
        g = 0
        for v in adj[nid]:
            if v in present:
                g += 1 if side[v] != s else -1
        return g

    # Greedy single-move refinement: every accepted move strictly drops
    # the cut size, so termination is immediate; the bound is a backstop.
    for _ in range(2 * len(order)):
        best = None
        for nid in order:
            if sizes[side[nid]] - 1 < min_side:
                continue
            g = gain(nid)
            if g > 0 and (best is None or g > best[0]):
                best = (g, nid)
        if best is None:
            break
        nid = best[1]
        s = side[nid]
        side[nid] = 1 - s
        sizes[s] -= 1
        sizes[1 - s] += 1
    return ([n for n in sorted(order) if side[n] == 0],
            [n for n in sorted(order) if side[n] == 1])


def cut_lookahead_ps(net, owner: Dict[int, int]) -> Optional[int]:
    """Minimum propagation delay over cut links; ``None`` if nothing cut.

    Deliberately excludes serialization time: chaos plans may retune
    rates mid-run, but nothing in the fault plane shortens a wire.
    """
    lookahead = None
    for port in net.ports:
        if owner[port.node.id] != owner[port.peer.id]:
            if lookahead is None or port.prop_delay_ps < lookahead:
                lookahead = port.prop_delay_ps
    if lookahead is not None:
        lookahead = max(1, lookahead)
    return lookahead


# ---------------------------------------------------------------------------
# Per-worker shard context
# ---------------------------------------------------------------------------

class ShardContext:
    """One worker's view: ownership map, flow replicas, outgoing messages."""

    def __init__(self, sim: ShardSimulator, shard_id: int):
        self.sim = sim
        self.id = shard_id
        self.owner: Dict[int, int] = {}
        #: fid -> local flow replica, filled by ``Flow.__init__``'s hook.
        self.flows: Dict[int, object] = {}
        self.net = None
        self.built = None
        #: Ingress cut ports by (src_node_id, dst_node_id) link key.
        self.cut_in: Dict[Tuple[int, int], object] = {}
        self.outbox: List[tuple] = []
        self._export_seq = count(1)
        sim.shard = self

    def register_flow(self, flow) -> None:
        self.flows[flow.fid] = flow

    def owns(self, node_id: int) -> bool:
        return self.owner.get(node_id) == self.id


def _noop_receive(pkt, from_port) -> None:
    """Instance-attribute stub for non-owned nodes: the real reception
    happens in the owning shard; the locally scheduled copy lands here."""
    return None


def _apply_ownership(ctx: ShardContext) -> None:
    me = ctx.id
    owner = ctx.owner
    for nid, node in ctx.net.nodes.items():
        if owner[nid] != me:
            node.receive = _noop_receive
    for flow in ctx.flows.values():
        if owner[flow.src.id] != me:
            flow._start_evt.cancel()
    for port in ctx.net.ports:
        src_s = owner[port.node.id]
        dst_s = owner[port.peer.id]
        if src_s == dst_s:
            continue
        if getattr(port, "pfc", None) is not None:
            raise ValueError(
                f"port {port.name} has PFC installed and sits on a shard "
                f"cut: PFC pause frames are scheduled directly onto the "
                f"neighbor's port and cannot cross shards — run this "
                f"topology serially or partition around the PFC domain")
        if src_s == me:
            _install_ship_hook(ctx, port, dst_s)
        if dst_s == me:
            ctx.cut_in[(port.node.id, port.peer.id)] = port


def _install_ship_hook(ctx: ShardContext, port, dst_shard: int) -> None:
    """Chain onto a cut port's transmit hook and export each packet.

    The arrival time reproduces the port's own delivery schedule
    (``now + tx_time + prop_delay``) exactly; the locally scheduled
    delivery still fires, harmlessly, into the peer's receive stub.
    """
    prev = port.on_transmit
    sim = ctx.sim
    link = (port.node.id, port.peer.id)
    export_seq = ctx._export_seq

    def ship(pkt: Packet) -> None:
        if prev is not None:
            prev(pkt)
        now = sim.now
        arr = now + tx_time_ps(pkt.wire_bytes, port.rate_bps) + port.prop_delay_ps
        # Resolve ``ctx.outbox`` at call time: the worker loop swaps in a
        # fresh list after draining each window's exports.
        ctx.outbox.append((dst_shard, link, arr, now, ctx.id,
                           next(export_seq), _encode_packet(pkt)))

    port.on_transmit = ship


# ---------------------------------------------------------------------------
# Packet codec (explicit fields: packets hold a live flow reference, which
# must be re-bound to the receiving shard's replica, and uids are
# process-local and unobserved by traces)
# ---------------------------------------------------------------------------

def _encode_packet(pkt: Packet) -> tuple:
    return (int(pkt.kind), pkt.src, pkt.dst,
            None if pkt.flow is None else pkt.flow.fid,
            pkt.wire_bytes, pkt.payload_bytes, pkt.seq, pkt.ack,
            pkt.credit_seq, pkt.ecn_capable, pkt.ecn_marked, pkt.ecn_echo,
            pkt.rcp_rate, pkt.sent_ts, pkt.low_priority,
            None if pkt.hops is None else list(pkt.hops))


def _decode_packet(ctx: ShardContext, data: tuple) -> Packet:
    (kind, src, dst, fid, wire, payload, seq, ack, credit_seq, ecn_capable,
     ecn_marked, ecn_echo, rcp_rate, sent_ts, low_priority, hops) = data
    pkt = Packet(PacketKind(kind), src, dst,
                 flow=None if fid is None else ctx.flows.get(fid),
                 wire_bytes=wire, payload_bytes=payload, seq=seq, ack=ack,
                 credit_seq=credit_seq, ecn_capable=ecn_capable,
                 sent_ts=sent_ts)
    pkt.ecn_marked = ecn_marked
    pkt.ecn_echo = ecn_echo
    pkt.rcp_rate = rcp_rate
    pkt.low_priority = low_priority
    pkt.hops = hops
    return pkt


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------

def _find_net(built):
    from repro.topology.network import Network

    if isinstance(built, Network):
        return built, None
    net = getattr(built, "net", None)
    if net is None and isinstance(built, dict):
        net = built.get("net")
    if net is None:
        raise TypeError(
            "builder must return a Network, an object with a .net "
            f"attribute, or a dict with a 'net' key; got {type(built)!r}")
    hint = getattr(built, "topo", None)
    return net, (hint if hint is not None else built)


def _digest(obj) -> str:
    return hashlib.blake2b(pickle.dumps(obj), digest_size=8).hexdigest()


def _rng_report(sim: Simulator) -> Tuple[Dict[str, str], Dict[str, bool]]:
    """Per named stream: a state digest, and whether it was ever drawn from."""
    digests, consumed = {}, {}
    for name, stream in sim._rngs.items():
        d = _digest(stream.getstate())
        digests[name] = d
        fresh = random.Random((sim.seed << 32) ^ zlib.crc32(name.encode()))
        consumed[name] = d != _digest(fresh.getstate())
    return digests, consumed


def _shard_worker(conn, builder, kwargs, shard_id, n_shards, seed,
                  planes, collect, probe) -> None:
    # One lock serialises every message on the pipe: the heartbeat thread
    # must never interleave bytes into the middle of a protocol reply.
    send_lock = threading.Lock()
    stop_hb = threading.Event()

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    def heartbeat_loop() -> None:
        interval = _shard_heartbeat_s()
        while not stop_hb.wait(interval):
            try:
                send(("hb",))
            except (OSError, ValueError):
                return

    hb = threading.Thread(target=heartbeat_loop, daemon=True)
    hb.start()
    try:
        _shard_worker_loop(send, conn, builder, kwargs, shard_id, n_shards,
                           seed, planes, collect, probe, stop_hb)
    except BaseException:
        try:
            send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        stop_hb.set()
        conn.close()


def _shard_worker_loop(send, conn, builder, kwargs, shard_id, n_shards, seed,
                       planes, collect, probe, stop_hb) -> None:
    from repro.obs import trace as trace_mod
    from repro.runtime import probes

    # The worker ships its spans back on the collect reply; it must never
    # lazily activate an ambient tracer of its own (which would race the
    # parent for the REPRO_TRACE output file at exit).
    os.environ.pop("REPRO_TRACE", None)
    # One capture per plane the coordinator found active, open for the
    # worker's whole life; closing the stack at ``collect`` yields the
    # payloads.  The tracer is the trace capture's buffer, if there is one.
    captures = contextlib.ExitStack()
    handles = captures.enter_context(probes.capture(planes))
    tracer = trace_mod.emit_target()

    build_t0 = tracer.now_us() if tracer is not None else 0.0
    sim = ShardSimulator(seed=seed)
    # The per-window ``sim.run`` calls below would otherwise each emit an
    # ``engine.run`` span; the "window" spans carry that information with
    # their counters instead.
    sim.obs_trace = None
    ctx = ShardContext(sim, shard_id)
    built = builder(sim, **(kwargs or {}))
    ctx.built = built
    ctx.net, topo_hint = _find_net(built)
    ctx.owner = partition_nodes(ctx.net, n_shards, topo=topo_hint)
    n_effective = max(ctx.owner.values()) + 1
    if sim.auditor is not None and n_effective > 1:
        sim.auditor.defer_flow_checks = True
    lookahead = cut_lookahead_ps(ctx.net, ctx.owner)
    _apply_ownership(ctx)
    if tracer is not None:
        tracer.span("shard", "builder.replay", track="lane",
                    t0=build_t0, t1=tracer.now_us(),
                    args={"shard": shard_id, "nodes": len(ctx.owner),
                          "lookahead_ps": lookahead})
    send(("ready", lookahead, n_effective,
          _digest(sorted(ctx.owner.items())), sim.peek_time()))
    idle_anchor = tracer.now_us() if tracer is not None else 0.0
    window_no = 0

    while True:
        msg = conn.recv()
        cmd = msg[0]
        if tracer is not None:
            busy_t0 = tracer.now_us()
            idle_us = busy_t0 - idle_anchor
        if cmd == "run":
            _, window_end, incoming = msg
            window_no += 1
            if selfchaos.armed():
                if selfchaos.fire("shard:kill", window=window_no):
                    selfchaos.kill_self()
                if selfchaos.fire("shard:hang", window=window_no):
                    # A hang is silence, not death: stop heartbeating and
                    # sleep until the coordinator's watchdog reaps us.
                    stop_hb.set()
                    while True:
                        time.sleep(60)
            for (link, arr, sched_t, src_shard, src_seq, data) in incoming:
                port = ctx.cut_in[link]
                pkt = _decode_packet(ctx, data)
                sim.push_reserved(arr, (sched_t, 1, src_shard, src_seq),
                                  port.peer.receive, pkt, port)
            if tracer is not None:
                events_before = sim.events_processed
            sim.run(until=window_end)
            out = ctx.outbox
            ctx.outbox = []
            if tracer is not None:
                tracer.span(
                    "shard", "window", track="lane",
                    t0=busy_t0, t1=tracer.now_us(),
                    args={"shard": shard_id, "end_ps": window_end,
                          "events": sim.events_processed - events_before,
                          "shipped": len(out), "received": len(incoming),
                          "idle_us": round(idle_us, 3)})
            send(("sync", sim.peek_time(), out))
        elif cmd == "probe":
            value = probe(ctx, msg[1]) if probe is not None else None
            if tracer is not None:
                tracer.span("shard", "probe", track="lane",
                            t0=busy_t0, t1=tracer.now_us(),
                            args={"shard": shard_id, "t_ps": msg[1],
                                  "idle_us": round(idle_us, 3)})
            send(("probe", msg[1], value))
        elif cmd == "collect":
            stop_hb.set()
            result = _collect_result(ctx, collect)
            captures.close()
            result["planes"] = {name: handle.payload
                                for name, handle in handles.items()}
            send(("result", result))
            return
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown coordinator command {cmd!r}")
        if tracer is not None:
            idle_anchor = tracer.now_us()


def _collect_result(ctx: ShardContext, collect) -> dict:
    sim = ctx.sim
    digests, consumed = _rng_report(sim)
    return {
        "shard": ctx.id,
        "now": sim.now,
        "events": sim.events_processed,
        "pending": sim.pending(),
        "rehashes": sum(f.path_rehashes for f in ctx.flows.values()),
        "recoveries": sum(getattr(f, "path_recoveries", 0)
                          for f in ctx.flows.values()),
        "rng": digests,
        "rng_consumed": consumed,
        "collect": None if collect is None else collect(ctx),
    }


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

@dataclass
class ShardedRun:
    """The merged outcome of one sharded execution."""

    n_shards: int
    n_effective: int
    lookahead_ps: Optional[int]
    windows: int
    events: int
    #: Raw per-shard result dicts, in shard order.
    shards: List[dict]
    #: ``collect(ctx)`` return values, in shard order.
    collected: List[Any]
    #: checkpoint time -> per-shard ``probe(ctx, t)`` values.
    probes: Dict[int, List[Any]]
    #: observation-plane name -> the shards' payloads merged into the one
    #: simulation they describe (:mod:`repro.runtime.probes`).
    planes: Dict[str, dict] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    #: One record per shard failover the supervisor performed:
    #: ``{"shard", "reason", "replayed_windows"}``.  Empty on a clean run.
    failovers: List[dict] = field(default_factory=list)

    @property
    def drained(self) -> bool:
        return all(r["pending"] == 0 for r in self.shards)


class _ShardFailure(Exception):
    """Internal: shard ``shard_id`` died or went silent (recoverable)."""

    def __init__(self, shard_id: int, reason: str):
        super().__init__(f"shard {shard_id}: {reason}")
        self.shard_id = shard_id
        self.reason = reason


class _ShardSupervisor:
    """Spawns, watches, reaps, and — on death — resurrects shard workers.

    Recovery protocol: window barriers are natural checkpoints, so when a
    worker dies (SIGKILL, OOM) or its heartbeat goes silent past the
    deadline, the supervisor terminates and reaps it, spawns a fresh
    worker (which replays the deterministic builder), then replays the
    recorded ``run`` command history — discarding the replayed outboxes,
    whose packets were already routed the first time — to fast-forward
    the replica to the last completed barrier.  Replicated construction
    plus deterministic windows make the resurrected shard's state
    bit-identical to the dead one's, which is what keeps golden digests
    equal to a failure-free run.

    A deterministic worker *error* (an exception reply) is not failed
    over — it would recur identically — and raises after every sibling is
    reaped, so no orphan processes outlive the run.
    """

    def __init__(self, spawn: Callable, shards: int,
                 deadline_s: Optional[float], max_respawns: int,
                 tracer=None):
        self._spawn = spawn
        self.shards = shards
        self.deadline_s = _shard_deadline_s() if deadline_s is None \
            else deadline_s
        self.max_respawns = max_respawns
        self.tracer = tracer
        self.conns: List[Any] = [None] * shards
        self.procs: List[Any] = [None] * shards
        self.last_seen = [0.0] * shards
        self.readies: List[Optional[tuple]] = [None] * shards
        self.owner_digest: Optional[str] = None
        #: Recorded replayable commands (the ``run`` history) per shard.
        self.history: List[List[tuple]] = [[] for _ in range(shards)]
        #: The posted-but-unanswered command per shard (replay excludes it).
        self.pending_cmd: List[Optional[tuple]] = [None] * shards
        self.respawns = 0
        self.failovers: List[dict] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self, i: int) -> None:
        self.conns[i], self.procs[i] = self._spawn(i)
        self.last_seen[i] = time.monotonic()

    def start_all(self) -> None:
        for i in range(self.shards):
            self.start(i)

    def _reap(self, i: int) -> None:
        conn, proc = self.conns[i], self.procs[i]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
            self.conns[i] = None
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
            proc.join()
            self.procs[i] = None

    def reap_all(self, grace_s: float = 30.0) -> None:
        """Terminate and join every worker — the no-orphans guarantee.

        On the success path workers have already exited (``collect``
        returns); the join is instant.  On any error path this tears the
        whole cohort down hard: close pipes (EOF wakes blocked workers),
        join with a grace period, terminate, and finally SIGKILL."""
        for conn in self.conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self.conns = [None] * self.shards
        procs = [p for p in self.procs if p is not None]
        deadline = time.monotonic() + grace_s
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
            proc.join()
        self.procs = [None] * self.shards

    # -- messaging ----------------------------------------------------------

    def _send_raw(self, i: int, msg: tuple) -> None:
        try:
            self.conns[i].send(msg)
        except (OSError, ValueError, BrokenPipeError):
            raise _ShardFailure(
                i, f"pipe closed (exitcode "
                   f"{getattr(self.procs[i], 'exitcode', None)})")

    def _recv_raw(self, i: int) -> tuple:
        """One protocol message from shard ``i`` (heartbeats skipped),
        watching for death and heartbeat silence while waiting."""
        while True:
            conn, proc = self.conns[i], self.procs[i]
            try:
                if conn.poll(0.2):
                    msg = conn.recv()
                    self.last_seen[i] = time.monotonic()
                    if msg[0] == "hb":
                        continue
                    if msg[0] == "error":
                        # Deterministic failure: a respawn would re-raise
                        # the same exception.  Reap everything and die.
                        self.reap_all(grace_s=5.0)
                        raise RuntimeError(
                            f"shard {i} worker failed:\n{msg[1]}")
                    return msg
            except (EOFError, OSError):
                raise _ShardFailure(
                    i, f"worker exited unexpectedly "
                       f"(exitcode {proc.exitcode})")
            if not proc.is_alive() and not conn.poll(0):
                raise _ShardFailure(
                    i, f"worker died (exitcode {proc.exitcode})")
            if time.monotonic() - self.last_seen[i] > self.deadline_s:
                raise _ShardFailure(
                    i, f"no heartbeat for {self.deadline_s:g}s "
                       f"(hung worker)")

    def post(self, i: int, msg: tuple, record: bool = False) -> None:
        """Send a command; a send failure triggers failover (which ends
        with the command re-posted)."""
        if record:
            self.history[i].append(msg)
        self.pending_cmd[i] = msg
        try:
            self._send_raw(i, msg)
        except _ShardFailure as fail:
            self.failover(i, fail.reason)

    def reply(self, i: int) -> tuple:
        """The pending command's reply, failing over as needed."""
        while True:
            try:
                msg = self._recv_raw(i)
                self.pending_cmd[i] = None
                return msg
            except _ShardFailure as fail:
                self.failover(i, fail.reason)

    def ready(self, i: int) -> tuple:
        """The shard's ready handshake (possibly stashed by a failover)."""
        while True:
            if self.readies[i] is not None:
                return self.readies[i]
            try:
                self.readies[i] = self._recv_raw(i)
                return self.readies[i]
            except _ShardFailure as fail:
                self.failover(i, fail.reason)

    # -- recovery -----------------------------------------------------------

    def failover(self, i: int, reason: str) -> None:
        """Respawn shard ``i``, fast-forward it to the last completed
        window barrier, and re-post its pending command (if any).

        Loops until the shard is healthy or the respawn budget runs out —
        a freshly respawned worker dying during its own replay counts
        against the same budget (each round reaps before respawning, so
        no attempt leaks a process)."""
        while True:
            self._reap(i)
            self.respawns += 1
            if self.respawns > self.max_respawns:
                self.reap_all(grace_s=5.0)
                raise RuntimeError(
                    f"shard {i} failed ({reason}) and the respawn budget "
                    f"({self.max_respawns}) is exhausted")
            t0 = self.tracer.now_us() if self.tracer is not None else 0.0
            if self.tracer is not None:
                self.tracer.event("shard", "shard.down", track="coordinator",
                                  t=t0, args={"shard": i, "reason": reason,
                                              "respawn": self.respawns})
            pending = self.pending_cmd[i]
            completed = self.history[i]
            if pending is not None and completed and completed[-1] is pending:
                completed = completed[:-1]
            try:
                self.start(i)
                ready = self._recv_raw(i)
                if self.owner_digest is not None \
                        and ready[3] != self.owner_digest:
                    self.reap_all(grace_s=5.0)
                    raise RuntimeError(
                        f"respawned shard {i} computed a different "
                        f"partition — the builder is not deterministic")
                self.readies[i] = ready
                for msg in completed:
                    # Replayed windows re-ship their cut-crossing packets;
                    # those were routed the first time, so the replies are
                    # drained and discarded.
                    self._send_raw(i, msg)
                    self._recv_raw(i)
                if pending is not None:
                    self._send_raw(i, pending)
            except _ShardFailure as refail:
                reason = refail.reason
                continue
            if self.tracer is not None:
                self.tracer.span(
                    "shard", "failover", track="coordinator",
                    t0=t0, t1=self.tracer.now_us(),
                    args={"shard": i, "reason": reason,
                          "replayed_windows": len(completed),
                          "respawn": self.respawns})
            self.failovers.append({"shard": i, "reason": reason,
                                   "replayed_windows": len(completed)})
            return


def run_sharded(builder, kwargs: Optional[dict] = None, *,
                shards: int, until: int, seed: int = 0,
                collect: Optional[Callable] = None,
                probe: Optional[Callable] = None,
                checkpoints: Sequence[int] = (),
                deadline_s: Optional[float] = None,
                max_respawns: int = 3) -> ShardedRun:
    """Execute ``builder``'s simulation to ``until`` across ``shards``
    worker processes; bit-identical to the same build run serially.

    ``builder(sim, **kwargs)`` must be a picklable module-level callable
    that only *builds* (never runs) and returns the topology handle — a
    ``Network``, anything with ``.net`` (optionally ``.topo`` for the
    structural fat-tree partition), or a ``{"net": ...}`` dict.  It is
    invoked identically in every worker; determinism of construction is
    what makes the replicas line up.

    ``collect(ctx)`` extracts one shard's picklable results at the end;
    ``probe(ctx, t)`` does the same at each time in ``checkpoints`` with
    every shard settled exactly at ``t`` (all events at or before ``t``
    executed — the moral equivalent of reading state after
    ``sim.run(until=t)`` serially).  Both receive the worker's
    :class:`ShardContext` (``ctx.built``, ``ctx.flows``, ``ctx.owns``).

    Every observation plane ambiently active here
    (:func:`repro.runtime.probes.ambient` — inside an audit or metrics
    capture, under a tracer) is captured per shard in the workers, and the
    merged payload — for the audit, including the cross-shard flow
    invariant checks the workers defer — is both returned
    (:attr:`ShardedRun.planes`) and recorded into the open parent capture.

    Workers heartbeat to the coordinator; a worker that dies (SIGKILL,
    OOM) or goes silent past ``deadline_s`` (default
    ``REPRO_SHARD_DEADLINE``, 60 s) is reaped and failed over by the
    :class:`_ShardSupervisor` — respawned, its builder replayed, and its
    window history fast-forwarded to the last completed barrier — up to
    ``max_respawns`` times per run, with results bit-identical to a
    failure-free run (:attr:`ShardedRun.failovers` records each).  On
    unrecoverable errors every remaining worker is terminated and joined
    before the exception propagates: no orphan processes, ever.
    """
    from repro.obs import trace as trace_mod
    from repro.runtime import probes as probe_registry

    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if until is None:
        raise ValueError("sharded runs need an explicit time horizon")
    checkpoints = sorted(set(checkpoints))
    if checkpoints and checkpoints[-1] > until:
        raise ValueError("checkpoints must lie within the run horizon")
    planes = probe_registry.ambient()
    tracer = trace_mod.emit_target()
    merge_t0 = None

    mp = multiprocessing.get_context()

    def spawn(shard_id: int):
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=_shard_worker,
            args=(child_conn, builder, kwargs, shard_id, shards, seed,
                  planes, collect, probe),
            daemon=True)
        proc.start()
        child_conn.close()
        return parent_conn, proc

    sup = _ShardSupervisor(spawn, shards, deadline_s, max_respawns, tracer)
    try:
        sup.start_all()
        readies = [sup.ready(i) for i in range(shards)]
        lookahead, n_effective, owner_digest = readies[0][1:4]
        sup.owner_digest = owner_digest
        for i, ready in enumerate(readies):
            if ready[3] != owner_digest:
                sup.reap_all(grace_s=5.0)
                raise RuntimeError(
                    f"shard {i} computed a different partition than shard 0 "
                    f"— the builder is not deterministic across processes")
        next_times = [r[4] for r in readies]

        pending: List[List[tuple]] = [[] for _ in range(shards)]
        probes: Dict[int, List[Any]] = {}
        cp_idx = 0
        windows = 0

        def do_probe(t: int) -> None:
            probe_t0 = tracer.now_us() if tracer is not None else 0.0
            for i in range(shards):
                sup.post(i, ("probe", t))
            probes[t] = [sup.reply(i)[2] for i in range(shards)]
            if tracer is not None:
                tracer.span("shard", "probe", track="coordinator",
                            t0=probe_t0, t1=tracer.now_us(),
                            args={"t_ps": t, "shards": shards})

        while True:
            candidates = [t for t in next_times if t is not None]
            candidates += [m[1] for shard_msgs in pending for m in shard_msgs]
            window_start = min(candidates) if candidates else None
            # Checkpoints strictly before the next event: every shard's
            # state is already exactly the state at that instant.
            while cp_idx < len(checkpoints) and (
                    window_start is None
                    or checkpoints[cp_idx] < window_start):
                do_probe(checkpoints[cp_idx])
                cp_idx += 1
            if window_start is None or window_start > until:
                break
            window_end = until if lookahead is None \
                else min(window_start + lookahead - 1, until)
            if cp_idx < len(checkpoints) and checkpoints[cp_idx] <= window_end:
                window_end = checkpoints[cp_idx]
            grant_t0 = tracer.now_us() if tracer is not None else 0.0
            routed = 0
            for i in range(shards):
                sup.post(i, ("run", window_end, pending[i]), record=True)
                pending[i] = []
            for i in range(shards):
                reply = sup.reply(i)
                next_times[i] = reply[1]
                for message in reply[2]:
                    pending[message[0]].append(message[1:])
                    routed += 1
            if tracer is not None:
                tracer.span("shard", "window.grant", track="coordinator",
                            t0=grant_t0, t1=tracer.now_us(),
                            args={"window": windows,
                                  "start_ps": window_start,
                                  "end_ps": window_end, "routed": routed})
            windows += 1
            if cp_idx < len(checkpoints) and checkpoints[cp_idx] == window_end:
                do_probe(checkpoints[cp_idx])
                cp_idx += 1

        merge_t0 = tracer.now_us() if tracer is not None else None
        for i in range(shards):
            sup.post(i, ("collect",))
        results: List[Optional[dict]] = [None] * shards
        for i in range(shards):
            reply = sup.reply(i)
            results[reply[1]["shard"]] = reply[1]
    finally:
        sup.reap_all()

    run = ShardedRun(
        n_shards=shards,
        n_effective=n_effective,
        lookahead_ps=lookahead,
        windows=windows,
        events=sum(r["events"] for r in results),
        shards=results,
        collected=[r["collect"] for r in results],
        probes=probes,
        failovers=sup.failovers,
    )
    _merge_warnings(run)
    for name in planes:
        run.planes[name] = probe_registry.get(name).absorb_shards(
            [r["planes"][name] for r in results])
    if tracer is not None and merge_t0 is not None:
        # The parent-side merge span closes over collect + the merges.
        tracer.span("shard", "merge", track="coordinator",
                    t0=merge_t0, t1=tracer.now_us(),
                    args={"shards": shards, "windows": windows,
                          "events": run.events})
    return run


def _merge_warnings(run: ShardedRun) -> None:
    results = run.shards
    rehashes = sum(r["rehashes"] for r in results)
    recoveries = sum(r["recoveries"] for r in results)
    if rehashes or recoveries:
        run.warnings.append(
            f"{rehashes} path rehash(es) / {recoveries} recovery(ies) fired: "
            f"rehashed ECMP hashes do not propagate to other shards' "
            f"replicas, so transit routing may diverge from a serial run")
    names = sorted({name for r in results for name in r["rng_consumed"]})
    for name in names:
        drawn_in = [r["shard"] for r in results
                    if r["rng_consumed"].get(name)]
        if len(drawn_in) >= 2:
            run.warnings.append(
                f"shared RNG stream {name!r} was drawn from in shards "
                f"{drawn_in}: per-shard draw order differs from serial, so "
                f"results may diverge from a serial run")
