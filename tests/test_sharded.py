"""repro.sim.parallel: serial == sharded bit-identity and the merge plane.

The headline invariant: partitioning a topology across worker processes
changes *nothing* observable — the golden-trace fixtures recorded from
serial runs must verify byte-for-byte against sharded executions, under
both queue backends, and audit verdicts must match a serial run of the
same scenario.
"""

import pathlib
from types import SimpleNamespace

import pytest

from repro import ExpressPassFlow, ExpressPassParams, audit
from repro.audit.golden import diff_golden, golden_payload, load_golden
from repro.chaos.controller import ChaosController
from repro.chaos.plan import FaultPlan, LossBurst
from repro.net.pfc import install_pfc
from repro.net.trace import PortTracer
from repro.sim.engine import Simulator
from repro.sim.parallel import (
    ShardSimulator,
    cut_lookahead_ps,
    partition_nodes,
    run_sharded,
)
from repro.sim.units import MS, SEC, US
from repro.topology.fattree import fat_tree
from repro.topology.simple import dumbbell, single_switch

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
EP = dict(params=ExpressPassParams(rtt_hint_ps=40 * US))


# -- builders (module-level: they run inside worker processes) ---------------

def build_dumbbell_ep(sim):
    topo = dumbbell(sim, n_pairs=2)
    tracers = {
        "L->R": PortTracer(topo.bottleneck_fwd),
        "R->L": PortTracer(topo.bottleneck_rev),
    }
    flows = [
        ExpressPassFlow(topo.senders[0], topo.receivers[0],
                        size_bytes=30_000, **EP),
        ExpressPassFlow(topo.senders[1], topo.receivers[1],
                        size_bytes=20_000, start_ps=500 * US, **EP),
    ]
    return SimpleNamespace(net=topo.net, topo=topo, tracers=tracers,
                           flows=flows)


def build_star_ep(sim):
    star = single_switch(sim, n_hosts=4)
    tracers = {
        f"tor->h{i}": PortTracer(star.net.port_between(star.switch, host))
        for i, host in enumerate(star.hosts)
    }
    ExpressPassFlow(star.hosts[0], star.hosts[2], size_bytes=40_000, **EP)
    ExpressPassFlow(star.hosts[1], star.hosts[3], size_bytes=25_000,
                    start_ps=200 * US, **EP)
    ExpressPassFlow(star.hosts[3], star.hosts[0], size_bytes=10_000,
                    start_ps=400 * US, **EP)
    return SimpleNamespace(net=star.net, topo=star, tracers=tracers)


def build_fat_tree_ep(sim):
    topo = fat_tree(sim, k=4)
    hosts = {h.name: h for h in topo.hosts}
    # Inter-pod pairs: every path crosses ToR -> agg -> core shard cuts.
    flows = [
        ExpressPassFlow(hosts["h0_0_0"], hosts["h2_0_0"],
                        size_bytes=25_000, **EP),
        ExpressPassFlow(hosts["h1_1_0"], hosts["h3_1_0"],
                        size_bytes=15_000, start_ps=100 * US, **EP),
        ExpressPassFlow(hosts["h2_0_1"], hosts["h0_1_1"],
                        size_bytes=20_000, start_ps=250 * US, **EP),
    ]
    tracers = {
        f"nic:{f.src.name}": PortTracer(f.src.nic) for f in flows
    }
    return SimpleNamespace(net=topo.net, topo=topo, tracers=tracers,
                           flows=flows)


def build_dumbbell_ep_chaos(sim):
    built = build_dumbbell_ep(sim)
    # A credit-eating Gilbert-Elliott burst on the reverse bottleneck: no
    # routing change, so it shards cleanly, and the eaten credits exercise
    # the injected-drop budget in the merged credit-conservation check.
    plan = FaultPlan(name="burst", seed=11, events=(
        LossBurst(t_ps=600 * US, a="R", b="L", duration_ps=300 * US,
                  p_enter_bad=0.4, p_exit_bad=0.2, match="credit"),
    ))
    built.chaos = ChaosController(sim, built.net, plan)
    return built


def build_pfc_dumbbell(sim):
    topo = dumbbell(sim, n_pairs=1)
    install_pfc(sim, topo.net.ports)
    return SimpleNamespace(net=topo.net, topo=topo)


def collect_traces(ctx):
    return {name: list(t.records) for name, t in ctx.built.tracers.items()}


def collect_flow_bytes(ctx):
    return {fid: f.bytes_delivered for fid, f in ctx.flows.items()
            if ctx.owns(f.dst.id)}


def probe_flow_bytes(ctx, t):
    return {fid: f.bytes_delivered for fid, f in ctx.flows.items()
            if ctx.owns(f.dst.id)}


def _merge_traces(collected, port_names):
    """Per traced port, the records from the (single) shard that owns the
    transmitting node; replicas on other shards must have seen nothing."""
    merged = {}
    for name in port_names:
        lists = [c[name] for c in collected if c[name]]
        assert len(lists) <= 1, (
            f"port {name} transmitted in {len(lists)} shards")
        merged[name] = lists[0] if lists else []
    return merged


def _run_serial(builder, until, seed):
    sim = Simulator(seed=seed)
    built = builder(sim)
    sim.run(until=until)
    return sim, built


# -- partitioner -------------------------------------------------------------

class TestPartition:
    def test_dumbbell_min_cut(self):
        sim = Simulator(seed=1)
        topo = dumbbell(sim, n_pairs=2)
        owner = partition_nodes(topo.net, 2)
        left = {topo.net.nodes[n].name for n, s in owner.items() if s == 0}
        right = {topo.net.nodes[n].name for n, s in owner.items() if s == 1}
        assert sorted([left, right], key=min) == \
            [{"L", "s0", "s1"}, {"R", "r0", "r1"}]
        assert cut_lookahead_ps(topo.net, owner) == \
            topo.bottleneck_fwd.prop_delay_ps

    def test_fat_tree_pods_plus_core(self):
        sim = Simulator(seed=1)
        topo = fat_tree(sim, k=4)
        owner = partition_nodes(topo.net, 5, topo=topo)
        core_shards = {owner[c.id] for c in topo.cores}
        assert core_shards == {4}
        # Each pod lands wholly in one of the four non-core shards.
        for tor in topo.tors:
            pod = tor.name.split("_")[0].removeprefix("tor")
            host_shards = {owner[h.id] for h in topo.hosts
                           if h.name.startswith(f"h{pod}_")}
            assert host_shards == {owner[tor.id]}
        assert {owner[t.id] for t in topo.tors} == {0, 1, 2, 3}

    def test_more_shards_than_nodes_collapses(self):
        sim = Simulator(seed=1)
        star = single_switch(sim, n_hosts=2)
        owner = partition_nodes(star.net, 64)
        assert set(owner) == set(star.net.nodes)
        assert max(owner.values()) < len(star.net.nodes)

    def test_deterministic(self):
        for _ in range(2):
            sims = [Simulator(seed=3), Simulator(seed=3)]
            owners = [partition_nodes(dumbbell(s, n_pairs=3).net, 2)
                      for s in sims]
            assert owners[0] == owners[1]


# -- bit-identity against the stored golden fixtures -------------------------

@pytest.mark.parametrize("name,builder,seed", [
    ("dumbbell_expresspass", build_dumbbell_ep, 7),
    ("star_cross_expresspass", build_star_ep, 21),
])
def test_sharded_matches_golden_fixture(name, builder, seed):
    """A 2-shard run reproduces the serial golden digests byte-for-byte."""
    run = run_sharded(builder, shards=2, until=1 * SEC, seed=seed,
                      collect=collect_traces)
    assert run.n_effective == 2
    assert run.warnings == []
    serial = load_golden(GOLDEN_DIR / f"{name}.json")
    merged = _merge_traces(run.collected, serial["ports"])
    diffs = diff_golden(serial, golden_payload(name, merged))
    assert not diffs, "sharded trace drift:\n" + "\n".join(diffs)


def test_fat_tree_pod_sharding_bit_identical():
    """k=4 fat tree, one shard per pod plus a core shard (5 workers)."""
    until = 20 * MS
    sim, built = _run_serial(build_fat_tree_ep, until, seed=33)
    serial = golden_payload("ft", {n: t.records
                                   for n, t in built.tracers.items()})
    run = run_sharded(build_fat_tree_ep, shards=5, until=until, seed=33,
                      collect=collect_traces)
    assert run.n_effective == 5
    merged = _merge_traces(run.collected, built.tracers)
    assert diff_golden(serial, golden_payload("ft", merged)) == []
    assert serial["total_packets"] > 0


def test_checkpoint_probe_matches_serial_midpoint_read():
    """probe(ctx, t) sees exactly the state sim.run(until=t) leaves."""
    until, mid = 1 * SEC, 700 * US
    sim = Simulator(seed=7)
    built = build_dumbbell_ep(sim)
    sim.run(until=mid)
    serial_mid = {f.fid: f.bytes_delivered for f in built.flows}
    sim.run(until=until)
    serial_final = {f.fid: f.bytes_delivered for f in built.flows}
    run = run_sharded(build_dumbbell_ep, shards=2, until=until, seed=7,
                      probe=probe_flow_bytes, checkpoints=(mid,),
                      collect=collect_flow_bytes)
    sharded_mid = {}
    for part in run.probes[mid]:
        sharded_mid.update(part)
    assert sharded_mid == serial_mid
    sharded_final = {}
    for part in run.collected:
        sharded_final.update(part)
    assert sharded_final == serial_final


# -- audit composition -------------------------------------------------------

@pytest.mark.parametrize("builder", [build_dumbbell_ep,
                                     build_dumbbell_ep_chaos])
def test_sharded_audit_verdict_matches_serial(builder):
    with audit.capture() as cap:
        sim = Simulator(seed=7)
        builder(sim)
        sim.run(until=1 * SEC)
    serial = cap.summary
    with audit.capture() as cap:
        run = run_sharded(builder, shards=2, until=1 * SEC, seed=7)
    sharded = cap.summary
    assert run.planes.get("audit") is not None
    assert sharded["ok"] == serial["ok"] is True
    assert sharded["violations"] == serial["violations"] == []
    # The merged summary was parked in the ambient capture.
    assert sharded["runs"] == 1
    # The chaos variant must actually have eaten credits for this test to
    # exercise the injected-drop budget merge.
    if builder is build_dumbbell_ep_chaos:
        assert run.shards[0]["planes"]["audit"]["shard"]["chaos"] is not None


def test_sharded_audit_catches_injected_violation():
    """The merged flow checks still fire: silently zero a shard's counter
    and the credit-conservation law must break centrally."""
    from repro.audit.auditor import check_flow_account
    from repro.audit.report import AuditReport
    from repro.audit.auditor import _merge_flow_account

    with audit.capture():
        run = run_sharded(build_dumbbell_ep, shards=2, until=1 * SEC, seed=7)
    accounts = [a for r in run.shards
                for a in r["planes"]["audit"]["shard"]["flow_accounts"]
                if a["fid"] == 1]
    assert len(accounts) == 2
    merged = _merge_flow_account(accounts)
    assert merged["credits_sent"] > 0
    report = AuditReport()
    check_flow_account(report, merged, drained=True, now=1 * SEC)
    assert report.ok, report.format()  # intact totals conserve
    tampered = dict(merged, credits_received=merged["credits_received"] - 3)
    report = AuditReport()
    check_flow_account(report, tampered, drained=True, now=1 * SEC)
    assert [v.invariant for v in report.violations] == \
        ["credit-conservation"]


# -- guard rails -------------------------------------------------------------

def test_pfc_on_cut_refused():
    with pytest.raises(RuntimeError, match="PFC"):
        run_sharded(build_pfc_dumbbell, shards=2, until=1 * MS, seed=1)


def test_shard_simulator_is_a_simulator():
    """Local-only ShardSimulator runs degenerate to plain serial order."""
    fired = []
    for cls in (Simulator, ShardSimulator):
        sim = cls(seed=5)
        sim.schedule(10, fired.append, (cls.__name__, "a"))
        sim.schedule_at(10, fired.append, (cls.__name__, "b"))
        sim.schedule_unref(5, fired.append, (cls.__name__, "c"))
        sim.run()
    plain = [tag for name, tag in fired if name == "Simulator"]
    sharded = [tag for name, tag in fired if name == "ShardSimulator"]
    assert plain == sharded == ["c", "a", "b"]


# -- scenario cells through the sharded path ---------------------------------

class TestShardedCells:
    """run_persistent under ``shards>1`` returns the exact serial row."""

    KW = dict(protocol="expresspass", n_flows=3, topology="dumbbell",
              warmup_ps=2 * MS, measure_ps=2 * MS, bin_ps=500 * US, seed=5)

    def test_persistent_row_bit_identical(self):
        from repro.runtime.config import using
        from repro.scenarios.cells import run_persistent

        serial = run_persistent(**self.KW)
        with using(shards=2):
            sharded = run_persistent(**self.KW)
        # Exact dict equality, floats included: the sharded path merges
        # integers only and defers every float to the shared row builder.
        assert sharded == serial

    def test_fat_tree_row_bit_identical(self):
        from repro.runtime.config import using
        from repro.scenarios.cells import run_persistent

        kw = dict(self.KW, topology="fat_tree", topo_params={"k": 4},
                  n_flows=4)
        serial = run_persistent(**kw)
        with using(shards=4):
            sharded = run_persistent(**kw)
        assert sharded == serial

    def test_spec_shards_never_lowered_into_kwargs(self):
        """``timing.shards`` is execution policy: it must not perturb cell
        kwargs, and therefore cache fingerprints, in any way."""
        from repro.scenarios.compiler import compile_scenario
        from repro.scenarios.schema import Scenario

        def spec(timing):
            return Scenario.from_dict({
                "schema": "repro.scenarios/v1",
                "name": "purity",
                "topology": {"kind": "dumbbell"},
                "workload": {"kind": "persistent", "n_flows": 2},
                "transport": {"protocol": "expresspass"},
                "timing": dict({"warmup_ps": 1 * MS, "measure_ps": 1 * MS,
                                "bin_ps": 500 * US}, **timing),
                "seeds": [1, 2],
            })

        plain = compile_scenario(spec({}))
        sharded = compile_scenario(spec({"shards": 2}))
        for cell in sharded.cells:
            assert "shards" not in cell.task.kwargs
        assert [c.fingerprint for c in sharded.cells] == \
            [c.fingerprint for c in plain.cells]
