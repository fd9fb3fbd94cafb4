"""Tests for repro.chaos: fault plans, injection, recovery, and budgeted audit.

Covers: Gilbert–Elliott loss statistics against closed form; fault-plan
serialization round-trips and bad-plan rejection; compound-event timeline
expansion; controller mechanics on a dumbbell (flap survival, meter/jitter
restore, injected-drop ledger, unknown-node skips); the audit plane staying
armed under an active plan (a genuine silent leak is still caught while
chaos-injected drops pass clean); determinism (same plan + seed ⇒
bit-identical packet traces, serial == parallel); the k=4 fat-tree
link-flap recovery acceptance bar; and the chaos CLI surface — all of the
last three on the one harness there is, the scenario-matrix cell that
``repro chaos`` and ``repro matrix fabric_chaos_recovery`` both run.
"""

import json
import random

import pytest

from repro import ExpressPassFlow, ExpressPassParams, cli, runtime
from repro import scenarios as sc
from repro.audit import NetworkAuditor
from repro.audit.golden import trace_digest
from repro.chaos import (
    ChaosController,
    CreditMeterFault,
    FaultPlan,
    GilbertElliott,
    HostJitterFault,
    LinkDown,
    LinkFlap,
    LossBurst,
    SwitchBlackout,
    event_from_dict,
)
from repro.chaos.scenarios import (
    RECOVERY_FRACTION,
    SCENARIOS,
    plan_for,
    recovered,
)
from repro.cli import main as cli_main
from repro.net.fault import LossInjector
from repro.net.trace import PortTracer
from repro.sim.engine import Simulator
from repro.sim.units import MS, SEC, US
from repro.topology.network import Network
from repro.topology.simple import dumbbell

EP = dict(params=ExpressPassParams(rtt_hint_ps=40 * US))

#: Scaled-down cell config, as ``repro chaos --set`` items, so harness tests
#: stay seconds, not minutes: 4 flows, horizon 5 ms (warmup 1 + measure 4),
#: fault at 2 ms for 1 ms.
SMALL = ["workload.n_flows=4", f"timing.warmup_ps={1 * MS}",
         f"timing.measure_ps={4 * MS}", f"chaos.fault_ps={2 * MS}",
         f"chaos.duration_ps={1 * MS}"]


def _cells(scenario, seeds, sets=()):
    """The cells ``repro chaos SCENARIO --seeds ... --set ...`` compiles."""
    return sc.compile_scenario(cli._chaos_scenario(None, scenario, sets),
                               seeds=seeds).cells


def _run_cell(scenario, seed, sets=()):
    """One audited chaos cell, in process, as the verb's row."""
    from repro import audit
    (cell,) = _cells(scenario, [seed], sets)
    with audit.capture() as verdict:
        row = cell.task.call()
    row["violations"] = len(verdict.summary["violations"])
    return row


@pytest.fixture(autouse=True)
def _no_ambient_audit(monkeypatch):
    """Tests that audit open their own capture; an ambient REPRO_AUDIT
    would attach a second auditor at Network.finalize."""
    monkeypatch.delenv("REPRO_AUDIT", raising=False)


# -- Gilbert–Elliott loss model --------------------------------------------

class TestGilbertElliott:
    def test_statistics_match_closed_form(self):
        model = GilbertElliott(random.Random(1234),
                               p_enter_bad=0.1, p_exit_bad=0.25)
        drops = sum(model.step() for _ in range(100_000))
        assert model.expected_loss_rate == pytest.approx(0.1 / 0.35)
        assert model.expected_burst_len == pytest.approx(4.0)
        assert model.observed_loss_rate == pytest.approx(
            model.expected_loss_rate, rel=0.10)
        assert model.observed_burst_len == pytest.approx(
            model.expected_burst_len, rel=0.10)
        assert drops == model.drops

    def test_partial_loss_probabilities(self):
        model = GilbertElliott(random.Random(7), p_enter_bad=0.2,
                               p_exit_bad=0.5, loss_good=0.01, loss_bad=0.5)
        for _ in range(100_000):
            model.step()
        assert model.observed_loss_rate == pytest.approx(
            model.expected_loss_rate, rel=0.15)

    def test_deterministic_given_rng(self):
        a = GilbertElliott(random.Random(3), 0.1, 0.3)
        b = GilbertElliott(random.Random(3), 0.1, 0.3)
        assert [a.step() for _ in range(5000)] == \
               [b.step() for _ in range(5000)]

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            GilbertElliott(rng, p_enter_bad=0.1, p_exit_bad=0.0)
        with pytest.raises(ValueError):
            GilbertElliott(rng, p_enter_bad=1.5, p_exit_bad=0.5)
        with pytest.raises(ValueError):
            GilbertElliott(rng, 0.1, 0.5, loss_bad=1.0001)


# -- fault plans ------------------------------------------------------------

def _full_plan() -> FaultPlan:
    return FaultPlan(name="everything", seed=42, events=(
        LinkDown(t_ps=1 * MS, a="L", b="R", direction="a->b"),
        LinkFlap(t_ps=2 * MS, a="L", b="R", down_ps=100 * US, flaps=2,
                 gap_ps=50 * US),
        SwitchBlackout(t_ps=3 * MS, node="L", duration_ps=200 * US),
        LossBurst(t_ps=4 * MS, a="R", b="L", duration_ps=500 * US,
                  p_enter_bad=0.2, p_exit_bad=0.5, match="credit"),
        CreditMeterFault(t_ps=5 * MS, a="s0", b="L", duration_ps=100 * US,
                         factor=3.0),
        HostJitterFault(t_ps=6 * MS, host="s0", duration_ps=100 * US,
                        factor=4.0),
    ))


class TestFaultPlan:
    def test_json_round_trip_exact(self):
        plan = _full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan
        # The JSON is itself stable (a cache key / git-diffable artifact).
        assert json.loads(plan.to_json())["version"] == 1
        assert FaultPlan.from_json(plan.to_json()).to_json() == plan.to_json()

    def test_save_load(self, tmp_path):
        plan = _full_plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_with_seed(self):
        plan = _full_plan()
        reseeded = plan.with_seed(99)
        assert reseeded.seed == 99
        assert reseeded.events == plan.events

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            event_from_dict({"kind": "meteor_strike", "t_ps": 0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            event_from_dict({"kind": "link_down", "t_ps": 0,
                             "a": "L", "b": "R", "severity": 11})

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            LinkDown(t_ps=-1, a="L", b="R")
        with pytest.raises(ValueError):
            LinkDown(t_ps=0, a="", b="R")
        with pytest.raises(ValueError):
            LinkFlap(t_ps=0, a="L", b="R", flaps=0)
        with pytest.raises(ValueError):
            LossBurst(t_ps=0, a="L", b="R", p_exit_bad=0.0)
        with pytest.raises(ValueError):
            LossBurst(t_ps=0, a="L", b="R", match="everything")
        with pytest.raises(ValueError):
            FaultPlan(reconverge_delay_ps=-1)

    def test_flap_timeline_expansion(self):
        plan = FaultPlan(events=(
            LinkFlap(t_ps=10, a="L", b="R", down_ps=5, flaps=2, gap_ps=3),))
        ops = [(t, op) for t, op, _, _ in plan.timeline()]
        assert ops == [(10, "link_down"), (15, "link_up"),
                       (18, "link_down"), (23, "link_up")]

    def test_timeline_sorted_and_stable(self):
        plan = FaultPlan(events=(
            SwitchBlackout(t_ps=100, node="L", duration_ps=50),
            LinkDown(t_ps=100, a="L", b="R"),
            LossBurst(t_ps=50, a="L", b="R", duration_ps=10),))
        tl = plan.timeline()
        assert [t for t, *_ in tl] == sorted(t for t, *_ in tl)
        # Equal times fire in plan order: blackout (idx 0) before link_down.
        at_100 = [(op, idx) for t, op, _, idx in tl if t == 100]
        assert at_100 == [("switch_down", 0), ("link_down", 1)]


# -- controller on a dumbbell ----------------------------------------------

class TestChaosController:
    def test_flow_survives_link_flap(self):
        """A mid-transfer flap on the only path: the flow must finish once
        the link returns, with every fault-window drop accounted."""
        sim = Simulator(seed=3)
        topo = dumbbell(sim, n_pairs=1)
        auditor = NetworkAuditor(sim)
        auditor.attach_network(topo.net)
        plan = FaultPlan(name="flap", seed=3, events=(
            LinkFlap(t_ps=500 * US, a="L", b="R", down_ps=500 * US),))
        controller = ChaosController(sim, topo.net, plan)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0],
                               size_bytes=2_000_000, **EP)
        sim.run(until=1 * SEC)
        assert flow.completed
        assert sim.pending() == 0
        assert controller.skipped == 0
        assert len(controller.applied) >= 2  # down, up (+ reconverges)
        report = auditor.finalize()
        assert report.ok, report.format()

    def test_loss_burst_budgeted_not_a_violation(self):
        """GE credit drops are charged to the chaos ledger and the audit
        conservation check passes with the budget applied."""
        sim = Simulator(seed=5)
        topo = dumbbell(sim, n_pairs=1)
        auditor = NetworkAuditor(sim)
        auditor.attach_network(topo.net)
        plan = FaultPlan(name="burst", seed=5, events=(
            LossBurst(t_ps=200 * US, a="R", b="L", duration_ps=2 * MS,
                      p_enter_bad=0.1, p_exit_bad=0.3, match="credit"),))
        controller = ChaosController(sim, topo.net, plan)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0],
                               size_bytes=1_000_000, **EP)
        sim.run(until=1 * SEC)
        assert flow.completed and sim.pending() == 0
        assert controller.total_injected_credit > 0
        assert controller.injected_credit_drops(flow.fid) == \
            controller.total_injected_credit
        report = auditor.finalize()
        assert report.ok, report.format()

    def test_real_leak_still_caught_under_active_plan(self):
        """The satellite self-test: with a chaos plan actively injecting
        budgeted credit drops, an *unbudgeted* silent leak elsewhere still
        breaks credit conservation."""
        sim = Simulator(seed=5)
        topo = dumbbell(sim, n_pairs=1)
        leak = LossInjector(topo.bottleneck_rev, every_nth=7,
                            match=lambda p: p.is_credit, notify_flows=False)
        auditor = NetworkAuditor(sim)
        auditor.attach_network(topo.net)
        plan = FaultPlan(name="burst", seed=5, events=(
            LossBurst(t_ps=200 * US, a="R", b="L", duration_ps=2 * MS,
                      p_enter_bad=0.1, p_exit_bad=0.3, match="credit"),))
        controller = ChaosController(sim, topo.net, plan)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0],
                               size_bytes=1_000_000, **EP)
        sim.run(until=1 * SEC)
        assert flow.completed and sim.pending() == 0
        assert leak.dropped > 0 and controller.total_injected_credit > 0
        report = auditor.finalize()
        hits = [v for v in report.violations
                if v.invariant == "credit-conservation"]
        assert hits, "silent leak went unnoticed under an active fault plan"
        assert "chaos-injected" in hits[0].message  # budget was applied

    def test_meter_fault_restores_exact_rate(self):
        sim = Simulator(seed=1)
        topo = dumbbell(sim, n_pairs=1)
        port = topo.bottleneck_fwd
        before = port.credit_bucket.rate_bps
        plan = FaultPlan(name="meter", seed=1, events=(
            CreditMeterFault(t_ps=100 * US, a="L", b="R",
                             duration_ps=300 * US, factor=2.0),))
        ChaosController(sim, topo.net, plan)
        sim.run(until=200 * US)
        assert port.credit_bucket.rate_bps == pytest.approx(2.0 * before)
        sim.run(until=1 * MS)
        assert port.credit_bucket.rate_bps == pytest.approx(before)

    def test_host_jitter_restores_delay_model(self):
        sim = Simulator(seed=1)
        topo = dumbbell(sim, n_pairs=1)
        host = topo.senders[0]
        before = host.delay_model
        plan = FaultPlan(name="jitter", seed=1, events=(
            HostJitterFault(t_ps=100 * US, host="s0",
                            duration_ps=300 * US, factor=8.0),))
        ChaosController(sim, topo.net, plan)
        sim.run(until=200 * US)
        assert host.delay_model is not before  # spiked per-host copy
        sim.run(until=1 * MS)
        assert host.delay_model is before

    def test_unknown_nodes_skipped_not_fatal(self):
        sim = Simulator(seed=1)
        topo = dumbbell(sim, n_pairs=1)
        plan = FaultPlan(name="ghost", seed=1, events=(
            LinkDown(t_ps=100 * US, a="agg9_9", b="core9"),
            SwitchBlackout(t_ps=200 * US, node="nowhere"),))
        controller = ChaosController(sim, topo.net, plan)
        sim.run(until=1 * MS)
        # link_down + (switch_down, switch_up): three skipped primitive ops.
        assert controller.skipped == 3
        assert all(msg.startswith("skip:") for _, msg in controller.applied)

    def test_second_controller_rejected(self):
        sim = Simulator(seed=1)
        topo = dumbbell(sim, n_pairs=1)
        plan = FaultPlan(name="one", seed=1)
        ChaosController(sim, topo.net, plan)
        with pytest.raises(RuntimeError):
            ChaosController(sim, topo.net, plan)


# -- determinism ------------------------------------------------------------

class TestDeterminism:
    def test_same_plan_same_seed_bit_identical(self, monkeypatch):
        tracers = []
        finalize = Network.finalize

        def finalize_traced(net):
            finalize(net)
            tracers.extend(PortTracer(port) for port in net.ports)
        monkeypatch.setattr(Network, "finalize", finalize_traced)

        def traced():
            tracers.clear()
            (cell,) = _cells("loss-burst", [7], SMALL)
            row = cell.task.call()
            records = [r for t in tracers for r in t.records]
            assert records
            return row, trace_digest(records)
        first, second = traced(), traced()
        assert first[1] == second[1]
        assert first == second

    def test_serial_matches_parallel(self, tmp_path):
        scenario = cli._chaos_scenario(None, "link-flap", SMALL)

        def sweep(parallel):
            with runtime.using(parallel=parallel, cache_enabled=False,
                               audit=True):
                results = sc.run_matrix(scenario, seeds=[1, 2]).results
            # The audit payload counts every event, transmit and enqueue of
            # the run: as sharp a fingerprint of the wire as a digest.
            return [(r.value, r.probes["audit"]) for r in results]
        assert sweep(0) == sweep(2)


# -- the acceptance bar: k=4 fat-tree link-flap recovery -------------------

class TestRecoveryAcceptance:
    def test_link_flap_recovers_goodput(self):
        row = _run_cell("link-flap", seed=1)
        assert row["violations"] == 0
        assert row["stalled"] == 0
        # The fault must actually bite before recovery means anything.
        assert row["low_gbps"] < RECOVERY_FRACTION * row["pre_gbps"]
        assert row["recovery_ms"] >= 0
        assert row["recovered_frac"] >= RECOVERY_FRACTION
        assert recovered(row)

    def test_watchdog_recovers_without_routing(self):
        """Reconvergence slower than the run: flows must re-hash themselves
        off the dead path (transport watchdog, not routing)."""
        # All 8 flows so the flapped link is on someone's path at this seed
        # (re-pinned when per-flow/per-host RNG streams changed trajectories,
        # and again, 5 -> 3, when the harness became the matrix cell, whose
        # flows all start at t=0: of seeds 1-8 at this scale only 3 and 8
        # fire the watchdog before the 1 ms flap is over).
        row = _run_cell("link-flap", seed=3, sets=SMALL + [
            "workload.n_flows=8", f"chaos.reconverge_delay_ps={100 * MS}"])
        assert row["recoveries"] > 0 and row["rehashes"] > 0
        assert row["stalled"] == 0
        assert row["violations"] == 0

    def test_all_scenarios_importable_and_listed(self):
        assert set(SCENARIOS) == {"link-flap", "switch-blackout",
                                  "loss-burst", "credit-misconfig",
                                  "host-jitter"}
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            plan_for("cosmic-rays")


# -- CLI surface ------------------------------------------------------------

class TestChaosCLI:
    def test_list(self, capsys):
        assert cli_main(["chaos", "list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_unknown_scenario_errors(self):
        with pytest.raises(SystemExit):
            cli_main(["chaos", "cosmic-rays"])

    def test_emit_plan(self, tmp_path, capsys):
        path = tmp_path / "flap.json"
        assert cli_main(["chaos", "link-flap", "--seed", "3",
                         "--set", f"chaos.duration_ps={2 * MS}",
                         "--emit-plan", str(path)]) == 0
        plan = FaultPlan.load(path)
        assert plan.name == "link-flap" and plan.seed == 3
        # The window is the bundled spec's (fault at 6 ms), as --set edits it.
        assert [(ev.kind, ev.t_ps, ev.down_ps) for ev in plan.events] == \
            [("link_flap", 6 * MS, 2 * MS)]

    def test_verb_compiles_the_bundled_specs_own_cells(self):
        """Same task, not a similar one: no simulation, identities only."""
        bundled = sc.compile_scenario(sc.load(sc.resolve_spec(
            "fabric_chaos_recovery")), seeds=(1, 2))
        for name in SCENARIOS:
            theirs = bundled.filtered(f"protocol=expresspass scenario={name}")
            mine = _cells(name, (1, 2))
            assert len(mine) == 2
            assert [c.task.identity for c in mine] == \
                [c.task.identity for c in theirs.cells]
            assert [c.label for c in mine] == [c.label for c in theirs.cells]

    GOOD = dict(seed=1, pre_gbps=27.0, low_gbps=19.0, post_gbps=27.0,
                recovered_frac=1.0, recovery_ms=1.0, stalled=0, rehashes=0,
                recoveries=0)

    @pytest.mark.parametrize("flaw,violations,status", [
        ({}, 0, 0),
        ({"stalled": 1}, 0, 1),
        ({"recovery_ms": -1.0}, 0, 1),
        ({"recovered_frac": 0.89}, 0, 1),
        ({}, 1, 1),
    ])
    def test_gate_is_a_function_of_the_rows(self, flaw, violations, status,
                                            monkeypatch, capsys):
        from repro.runtime import TaskResult
        row = dict(self.GOOD, **flaw)
        assert recovered(dict(row, violations=violations)) is (status == 0)
        verdict = {"runs": 1, "checks": {}, "ok": not violations,
                   "violations": [{"invariant": "x", "subject": "y",
                                   "time_ps": 0, "message": "z"}] * violations}
        results = [TaskResult(0, "good", value=dict(self.GOOD),
                              probes={"audit": {"runs": 1, "checks": {},
                                                "violations": [], "ok": True}}),
                   TaskResult(1, "flawed", value=row,
                              probes={"audit": verdict})]

        def fake_run_matrix(scenario, seeds=None, cell_filter=None):
            from repro.runtime import probes
            for res in results:
                probes.bank(res.label, res.probes)
            return sc.MatrixOutcome(matrix=None, results=results, report=None)
        monkeypatch.setattr(sc, "run_matrix", fake_run_matrix)
        assert cli_main(["chaos", "link-flap", "--seeds", "1,2",
                         "--json"]) == status
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["ok"] for r in rows] == [True, status == 0]
        assert rows[1]["violations"] == violations

    @pytest.mark.parametrize("item,field", [
        ("chaos.bogus=1", "chaos: "),
        ("chaos.fault_ps=1000", "chaos.fault_ps: "),
        ("chaos.duration_ps=abc", "chaos.duration_ps: "),
    ])
    def test_bad_set_is_a_field_addressed_line_before_any_task(
            self, item, field, monkeypatch, capsys):
        from repro.scenarios import matrix

        def unreachable(plan):
            raise AssertionError("a task was started")
        monkeypatch.setattr(matrix, "run_tasks", unreachable)
        assert cli_main(["chaos", "link-flap", "--set", item]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert field in err.splitlines()[0]

    def test_verb_inherits_pool_and_journal(self, tmp_path, capsys):
        from repro.resilience import journal as run_journal
        log = tmp_path / "j.jsonl"
        argv = ["chaos", "link-flap", "--seeds", "1,2", "--parallel", "2",
                "--journal", str(log), "--json"]
        for item in SMALL:
            argv += ["--set", item]
        assert cli_main(argv) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["seed"] for r in rows] == [1, 2]
        assert all(r["ok"] and r["violations"] == 0 for r in rows)
        events = [e["event"] for e in run_journal.load_journal(log).events]
        assert events.count("task_done") == 2

    def test_twin_harness_is_gone_not_hidden(self, capsys):
        import inspect
        from repro.chaos import scenarios as chaos_scenarios
        from repro.scenarios import cells
        assert not hasattr(chaos_scenarios, "run_point")
        assert not hasattr(chaos_scenarios, "run")
        assert "RECOVERY_FRACTION" in inspect.getsource(cells._persistent_row)
        with pytest.raises(SystemExit):
            cli_main(["chaos", "--help"])
        assert "--retries" in capsys.readouterr().out
