"""Tests for repro.audit: runtime invariant verification.

Covers: clean runs audit clean; each deliberately seeded fault (broken
credit meter, misrouted credit path, silent credit loss, over-bound queue)
is caught with a pointed violation; auditing is strictly observation-only
(audited runs bit-identical to unaudited, serial and parallel); the capture
/ env-var activation plumbing; PortTracer hook chaining; and the runtime
scheduler carrying audit verdicts on task results.
"""

import os

import pytest

from repro import ExpressPassFlow, ExpressPassParams, runtime
from repro.audit import (
    NetworkAuditor,
    capture,
    format_summary,
    merge_summaries,
)
from repro import audit as audit_mod
from repro.net.fault import LossInjector
from repro.net.queues import TokenBucket
from repro.net.trace import PortTracer
from repro.runtime import probes, run_tasks
from repro.runtime.task import TaskSpec
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, SEC, US
from repro.topology.fattree import fat_tree
from repro.topology.network import LinkSpec
from repro.topology.simple import dumbbell
from repro.transport import RenoFlow

EP = dict(params=ExpressPassParams(rtt_hint_ps=40 * US))


@pytest.fixture(autouse=True)
def _isolate_ambient_audit(monkeypatch):
    """These tests manage their own auditors (often with custom bounds);
    an ambient REPRO_AUDIT=1 (e.g. the audited CI job) would auto-attach
    one at Network.finalize() first and collide.  Activation-path tests
    set the variable back explicitly."""
    monkeypatch.delenv("REPRO_AUDIT", raising=False)


def _run_dumbbell(seed=11, n_pairs=3, audited=False, size0=25_000):
    """One deterministic dumbbell scenario; returns (observables, auditor)."""
    sim = Simulator(seed=seed)
    topo = dumbbell(sim, n_pairs=n_pairs)
    auditor = None
    if audited:
        auditor = NetworkAuditor(sim)
        auditor.attach_network(topo.net)
    flows = [ExpressPassFlow(s, r, size_bytes=size0 + 5_000 * i, **EP)
             for i, (s, r) in enumerate(zip(topo.senders, topo.receivers))]
    sim.run(until=1 * SEC)
    observables = ([f.fct_ps for f in flows], sim.events_processed,
                   topo.net.max_data_queue_bytes(),
                   topo.net.total_credit_drops())
    return observables, auditor


# -- clean runs ------------------------------------------------------------

class TestCleanRuns:
    def test_dumbbell_expresspass_audits_clean(self):
        _, auditor = _run_dumbbell(audited=True)
        report = auditor.finalize()
        assert report.ok, report.format()
        assert report.violations == []
        # "0 violations" must mean checking actually happened.
        assert report.checks["events"] > 0
        assert report.checks["transmits"] > 0
        assert report.checks["credits_metered"] > 0
        assert report.checks["ports"] == 14  # 2 bottleneck + 12 edge ports
        assert report.checks["flows"] == 3

    def test_symmetric_fat_tree_audits_clean(self):
        sim = Simulator(seed=1)
        ft = fat_tree(sim, k=4)
        auditor = NetworkAuditor(sim)
        auditor.attach_network(ft.net)
        flow = ExpressPassFlow(ft.hosts[0], ft.hosts[4],
                               size_bytes=40_000,
                               params=ExpressPassParams(rtt_hint_ps=60 * US))
        sim.run(until=1 * SEC)
        assert flow.completed
        report = auditor.finalize()
        assert report.ok, report.format()

    def test_finalize_is_idempotent(self):
        _, auditor = _run_dumbbell(audited=True)
        first = auditor.finalize()
        assert auditor.finalize() is first
        assert first.ok


# -- seeded faults: each invariant catches its dedicated breakage ----------

class TestSeededFaults:
    def test_oversized_credit_burst_caught(self):
        """A port whose credit meter allows a 100-credit burst is flagged."""
        sim = Simulator(seed=2)
        topo = dumbbell(sim, n_pairs=4)
        port = topo.bottleneck_rev  # carries all credits toward the senders
        port.credit_bucket = TokenBucket(port.rate_bps, burst_bytes=100 * 84)
        auditor = NetworkAuditor(sim)
        auditor.attach_network(topo.net)
        flows = [ExpressPassFlow(s, r, size_bytes=None, **EP)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=30 * MS)
        for f in flows:
            f.stop()
        report = auditor.finalize()
        hits = [v for v in report.violations if v.invariant == "credit-rate"]
        assert hits, report.format()
        offense = hits[0]
        assert offense.subject == port.name          # names the port
        assert offense.time_ps > 0                   # first-offense time
        assert "rate reservation" in offense.message
        assert offense.trace                         # ring-buffer context
        assert offense.count > 1                     # systematic, deduped

    def test_misrouted_credit_path_caught(self):
        """Asymmetric ECMP hashing sends credits off the data path (§3.1)."""
        sim = Simulator(seed=1)
        ft = fat_tree(sim, k=4)
        auditor = NetworkAuditor(sim)
        auditor.attach_network(ft.net)
        flow = ExpressPassFlow(ft.hosts[0], ft.hosts[4],
                               size_bytes=40_000,
                               params=ExpressPassParams(rtt_hint_ps=60 * US),
                               symmetric_routing=False)
        sim.run(until=1 * SEC)
        assert flow.completed
        report = auditor.finalize()
        hits = [v for v in report.violations
                if v.invariant == "path-symmetry"]
        assert hits, report.format()
        assert "ExpressPassFlow" in hits[0].subject   # names the flow
        assert "reverse of the data path" in hits[0].message

    def test_silent_credit_loss_breaks_conservation(self):
        """net.fault silent drops violate credits_sent == received + drops."""
        sim = Simulator(seed=3)
        topo = dumbbell(sim, n_pairs=1)
        injector = LossInjector(topo.bottleneck_rev, every_nth=7,
                                match=lambda p: p.is_credit,
                                notify_flows=False)
        auditor = NetworkAuditor(sim)
        auditor.attach_network(topo.net)
        flow = ExpressPassFlow(topo.senders[0], topo.receivers[0],
                               size_bytes=40_000, **EP)
        sim.run(until=1 * SEC)
        assert flow.completed and sim.pending() == 0
        assert injector.dropped > 0
        report = auditor.finalize()
        hits = [v for v in report.violations
                if v.invariant == "credit-conservation"]
        assert hits, report.format()
        assert f"{injector.dropped} lost silently" in hits[0].message

    def test_buffer_bound_violation_names_port_and_time(self):
        """A reactive protocol pushed past a sharp bound trips the check."""
        sim = Simulator(seed=4)
        topo = dumbbell(sim, n_pairs=2)
        bound = 4 * 1538
        auditor = NetworkAuditor(sim, buffer_bound_bytes=bound)
        auditor.attach_network(topo.net)
        flows = [RenoFlow(s, r, size_bytes=400_000)
                 for s, r in zip(topo.senders, topo.receivers)]
        sim.run(until=50 * MS)
        report = auditor.finalize()
        hits = [v for v in report.violations if v.invariant == "buffer-bound"]
        assert hits, report.format()
        offense = hits[0]
        assert offense.subject == topo.bottleneck_fwd.name
        assert offense.time_ps > 0
        assert f"> {bound}B" in offense.message
        assert offense.trace
        del flows

    def test_clock_monotonicity_unit(self):
        auditor = NetworkAuditor(Simulator(seed=0))
        auditor.on_event(100)
        auditor.on_event(100)  # equal timestamps are legal
        auditor.on_event(99)   # backwards is not
        assert [v.invariant for v in auditor.report.violations] == [
            "clock-monotonicity"]
        assert "moved backwards" in auditor.report.violations[0].message

    def test_one_auditor_per_simulator(self):
        sim = Simulator(seed=0)
        NetworkAuditor(sim)
        with pytest.raises(RuntimeError, match="already has an auditor"):
            NetworkAuditor(sim)


# -- differential: audit is observation-only (satellite) -------------------

def _diff_point(seed: int) -> tuple:
    """Module-level sweep task (picklable) returning run observables."""
    observables, _ = _run_dumbbell(seed=seed, audited=False)
    return observables


class TestObservationOnly:
    def test_audited_run_bit_identical_sim_level(self):
        plain, _ = _run_dumbbell(audited=False)
        audited, auditor = _run_dumbbell(audited=True)
        assert plain == audited
        assert auditor.finalize().ok

    def test_audited_sweep_bit_identical_serial_and_parallel(self, tmp_path):
        specs = [TaskSpec(fn=_diff_point, kwargs={"seed": s},
                          label=f"seed{s}") for s in (5, 6)]
        values = {}
        for mode, overrides in {
            "plain": dict(parallel=0, audit=False),
            "audited-serial": dict(parallel=0, audit=True),
            "audited-parallel": dict(parallel=2, audit=True),
        }.items():
            with probes.session(("audit",)) as sess, \
                    runtime.using(cache_enabled=False, progress=False,
                                  retries=0, **overrides):
                results = run_tasks(list(specs), name=f"diff-{mode}")
            assert all(r.ok for r in results)
            values[mode] = [r.value for r in results]
            if overrides["audit"]:
                for r in results:
                    assert r.probes.get("audit") is not None
                    assert r.probes["audit"]["ok"], r.probes["audit"]
                    assert r.probes["audit"]["checks"]["events"] > 0
                session = sess.merged("audit")
                assert session["runs"] == len(specs)
                assert session["ok"]
            else:
                assert all(r.probes.get("audit") is None for r in results)
        assert values["plain"] == values["audited-serial"]
        assert values["plain"] == values["audited-parallel"]


# -- activation plumbing ---------------------------------------------------

class TestActivation:
    def test_capture_scope_attaches_via_network_finalize(self):
        with capture() as cap:
            sim = Simulator(seed=11)
            topo = dumbbell(sim, n_pairs=1)  # finalize() runs inside scope
            assert sim.auditor is not None
            flow = ExpressPassFlow(topo.senders[0], topo.receivers[0],
                                   size_bytes=20_000, **EP)
            sim.run(until=1 * SEC)
            assert flow.completed
        assert cap.summary["ok"]
        assert cap.summary["runs"] == 1
        assert cap.summary["checks"]["flows"] == 1

    def test_inactive_by_default(self):
        sim = Simulator(seed=11)
        dumbbell(sim, n_pairs=1)
        assert sim.auditor is None

    def test_env_var_activates_without_global_accumulation(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT", "1")
        before = len(audit_mod._captured)
        sim = Simulator(seed=11)
        dumbbell(sim, n_pairs=1)
        assert sim.auditor is not None
        # Outside any capture, nothing is retained globally: long audited
        # processes (REPRO_AUDIT=1 pytest) must not leak auditors.
        assert len(audit_mod._captured) == before

    def test_nested_captures_do_not_double_count(self):
        with capture() as outer:
            with capture() as inner:
                sim = Simulator(seed=11)
                dumbbell(sim, n_pairs=1)
                sim.run(until=1 * MS)
            assert inner.summary["runs"] == 1
        assert outer.summary["runs"] == 0

    def test_summary_merge_and_format(self):
        merged = merge_summaries([
            None,
            {"ok": True, "violations": [], "checks": {"events": 5},
             "runs": 1},
            {"ok": False, "runs": 1, "checks": {"events": 2},
             "violations": [{"invariant": "credit-rate", "subject": "p",
                             "time_ps": 9, "message": "m", "count": 3,
                             "trace": ["t"]}]},
        ])
        assert merged["runs"] == 2
        assert merged["checks"]["events"] == 7
        assert not merged["ok"]
        text = format_summary(merged)
        assert "2 audited run(s)" in text
        assert "credit-rate" in text and "(x3)" in text


# -- PortTracer composition (satellite) ------------------------------------

class TestTracerChaining:
    def _traced_run(self):
        sim = Simulator(seed=9)
        topo = dumbbell(sim, n_pairs=1)
        return sim, topo

    def test_two_tracers_on_one_port_both_record(self):
        sim, topo = self._traced_run()
        inner = PortTracer(topo.bottleneck_fwd)
        outer = PortTracer(topo.bottleneck_fwd)  # regression: used to raise
        ExpressPassFlow(topo.senders[0], topo.receivers[0],
                        size_bytes=20_000, **EP)
        sim.run(until=1 * SEC)
        assert inner.records
        assert inner.records == outer.records

    def test_tracer_chains_over_audit_probe(self):
        sim, topo = self._traced_run()
        auditor = NetworkAuditor(sim)
        auditor.attach_network(topo.net)
        tracer = PortTracer(topo.bottleneck_fwd)
        ExpressPassFlow(topo.senders[0], topo.receivers[0],
                        size_bytes=20_000, **EP)
        sim.run(until=1 * SEC)
        # Both the audit probe and the tracer saw every wire packet.
        assert tracer.count() > 0
        assert auditor.finalize().ok

    def test_detach_restores_wrapped_hook(self):
        sim, topo = self._traced_run()
        seen = []
        hook = seen.append
        topo.bottleneck_fwd.on_transmit = hook
        tracer = PortTracer(topo.bottleneck_fwd)
        ExpressPassFlow(topo.senders[0], topo.receivers[0],
                        size_bytes=20_000, **EP)
        sim.run(until=4 * MS)
        mid_records = len(tracer.records)
        assert mid_records > 0 and len(seen) == mid_records
        tracer.detach()
        assert topo.bottleneck_fwd.on_transmit is hook
        ExpressPassFlow(topo.senders[0], topo.receivers[0],
                        size_bytes=20_000, **EP)
        sim.run(until=1 * SEC)
        assert len(tracer.records) == mid_records  # stopped recording
        assert len(seen) > mid_records             # original hook kept going


# -- CLI integration -------------------------------------------------------

FIG15_TINY = ["--set", "protocols=expresspass,", "--set", "flow_counts=2,3",
              "--set", "warmup_ps=2000000000",
              "--set", "measure_ps=2000000000"]


class TestCliAudit:
    def test_cli_audit_clean_run_exits_zero(self, capsys):
        from repro.cli import main
        code = main(["run", "fig15", "--audit", "--no-cache", "--json"]
                    + FIG15_TINY)
        captured = capsys.readouterr()
        assert code == 0
        assert "audit:" in captured.err
        assert "0 violation(s)" in captured.err

    def test_cli_audit_output_matches_unaudited(self, capsys):
        from repro.cli import main
        assert main(["run", "fig15", "--no-cache", "--json"]
                    + FIG15_TINY) == 0
        plain = capsys.readouterr().out
        assert main(["run", "fig15", "--audit", "--no-cache", "--json"]
                    + FIG15_TINY) == 0
        audited = capsys.readouterr().out
        assert plain == audited
