"""repro.scenarios: schema validation, loader, compiler, and report."""

from __future__ import annotations

import copy
import json

import pytest

from repro import scenarios
from repro.scenarios import (
    Scenario,
    SpecError,
    build_report,
    compile_scenario,
    match_cell,
    validate_report_jsonl,
)


def base_spec(**over) -> dict:
    """A minimal valid persistent spec; keyword overrides splice in."""
    spec = {
        "schema": "repro.scenarios/v1",
        "name": "unit",
        "topology": {"kind": "dumbbell"},
        "workload": {"kind": "persistent", "n_flows": 2},
        "transport": {"protocol": "expresspass"},
        "timing": {"warmup_ps": 1_000_000, "measure_ps": 1_000_000},
    }
    spec.update(over)
    return spec


def incast_spec(**over) -> dict:
    spec = {
        "schema": "repro.scenarios/v1",
        "name": "unit-incast",
        "topology": {"kind": "single_switch",
                     "params": {"hosts": 5, "base_rtt_ps": 20_000_000}},
        "workload": {"kind": "incast", "n_flows": 6, "flow_bytes": 1000,
                     "rounds": 3},
        "transport": {"protocol": "expresspass"},
        "timing": {"measure_ps": 1_000_000_000},
    }
    spec.update(over)
    return spec


def poisson_spec(**over) -> dict:
    spec = {
        "schema": "repro.scenarios/v1",
        "name": "unit-poisson",
        "topology": {"kind": "clos"},
        "workload": {"kind": "poisson", "n_flows": 10, "load": 0.3},
        "transport": {"protocol": "dctcp"},
    }
    spec.update(over)
    return spec


class TestValidation:
    def test_minimal_spec_loads(self):
        s = Scenario.from_dict(base_spec())
        assert s.name == "unit"
        assert s.topology["kind"] == "dumbbell"
        assert s.seeds == (1,)
        assert s.cell_count == 1

    def test_defaults_filled(self):
        s = Scenario.from_dict(base_spec(timing=None))
        assert s.timing["warmup_ps"] == 50_000_000_000
        assert s.timing["bin_ps"] == 500_000_000
        assert s.transport["ep_profile"] == "default"

    def test_poisson_timing_keys_differ(self):
        s = Scenario.from_dict(poisson_spec())
        assert set(s.timing) == {"drain_ps"}

    # Every rejection path, one seeded error each.  The expected field is
    # what `scenarios validate` prints — the error-addressing contract.
    REJECTIONS = [
        ("not-a-mapping", lambda d: "nope", "<root>"),
        ("schema-missing", lambda d: {**d, "schema": None}, "schema"),
        ("schema-version", lambda d: {**d, "schema": "repro.scenarios/v2"},
         "schema"),
        ("name-missing", lambda d: {**d, "name": ""}, "name"),
        ("description-type", lambda d: {**d, "description": 7},
         "description"),
        ("tags-type", lambda d: {**d, "tags": "smoke"}, "tags"),
        ("unknown-top-key", lambda d: {**d, "wrokload": {}}, "<root>"),
        ("topology-kind", lambda d: {**d, "topology": {"kind": "torus"}},
         "topology.kind"),
        ("topology-rate", lambda d: {**d, "topology": {"kind": "dumbbell",
                                                       "rate_bps": -1}},
         "topology.rate_bps"),
        ("topology-params-unknown",
         lambda d: {**d, "topology": {"kind": "dumbbell",
                                      "params": {"k": 4}}},
         "topology.params"),
        ("clos-base-rtt",
         lambda d: {**d, "topology": {"kind": "clos",
                                      "params": {"base_rtt_ps": 40_000_000}},
                    "workload": {"kind": "poisson"}, "timing": None},
         "topology.params"),
        ("base-rtt-negative",
         lambda d: {**d, "topology": {"kind": "parking_lot",
                                      "params": {"base_rtt_ps": -1}}},
         "topology.params.base_rtt_ps"),
        ("fat-tree-odd-k",
         lambda d: {**d, "topology": {"kind": "fat_tree",
                                      "params": {"k": 3}}},
         "topology.params.k"),
        ("workload-kind",
         lambda d: {**d, "workload": {"kind": "bursty"}}, "workload.kind"),
        ("persistent-on-clos",
         lambda d: {**d, "topology": {"kind": "clos"}}, "workload.kind"),
        ("parking-lot-one-flow",
         lambda d: {**d, "topology": {"kind": "parking_lot"},
                    "workload": {"kind": "persistent", "n_flows": 1}},
         "workload.n_flows"),
        ("fat-tree-too-many-flows",
         lambda d: {**d, "topology": {"kind": "fat_tree", "params": {"k": 4}},
                    "workload": {"kind": "persistent", "n_flows": 9}},
         "workload.n_flows"),
        ("transport-unknown",
         lambda d: {**d, "transport": {"protocol": "quic"}},
         "transport.protocol"),
        ("ep-profile-unknown",
         lambda d: {**d, "transport": {"protocol": "expresspass",
                                       "ep_profile": "turbo"}},
         "transport.ep_profile"),
        ("timing-wrong-key",
         lambda d: {**d, "timing": {"drain_ps": 1}}, "timing"),
        ("timing-negative",
         lambda d: {**d, "timing": {"warmup_ps": 0}}, "timing.warmup_ps"),
        ("seeds-empty", lambda d: {**d, "seeds": []}, "seeds"),
        ("seeds-dup", lambda d: {**d, "seeds": [1, 1]}, "seeds"),
        ("seeds-type", lambda d: {**d, "seeds": ["one"]}, "seeds[0]"),
        ("sweep-seeds-axis",
         lambda d: {**d, "sweep": {"seeds": [1, 2]}}, "sweep.seeds"),
        ("sweep-unknown-axis",
         lambda d: {**d, "sweep": {"workload.burstiness": [1]}},
         "sweep.workload.burstiness"),
        ("sweep-empty-values",
         lambda d: {**d, "sweep": {"transport.protocol": []}},
         "sweep.transport.protocol"),
        ("sweep-bad-value",
         lambda d: {**d, "sweep": {"transport.protocol": ["quic"]}},
         "sweep.transport.protocol[0]"),
        ("sweep-dup-value",
         lambda d: {**d, "sweep": {"workload.n_flows": [2, 3, 2]}},
         "sweep.workload.n_flows"),
        ("report-compare",
         lambda d: {**d, "report": {"compare": "workload.burstiness"}},
         "report.compare"),
        ("report-objective-direction",
         lambda d: {**d, "report": {"objectives": {"fairness": "best"}}},
         "report.objectives.fairness"),
        ("chaos-no-mode", lambda d: {**d, "chaos": {}}, "chaos"),
        ("chaos-two-modes",
         lambda d: {**d, "chaos": {"scenario": "link-flap", "events": []}},
         "chaos"),
        ("chaos-events-empty",
         lambda d: {**d, "chaos": {"events": []}}, "chaos.events"),
        ("chaos-event-kind",
         lambda d: {**d, "chaos": {"events": [{"kind": "meteor", "t_ps": 1}]}},
         "chaos.events[0]"),
        ("chaos-plan-missing-file",
         lambda d: {**d, "chaos": {"plan": "does/not/exist.json"}},
         "chaos.plan"),
        ("chaos-scenario-unknown",
         lambda d: {**d,
                    "topology": {"kind": "fat_tree", "params": {"k": 4}},
                    "chaos": {"scenario": "earthquake"}},
         "chaos.scenario"),
        ("chaos-scenario-needs-fat-tree",
         lambda d: {**d, "chaos": {"scenario": "link-flap"}},
         "chaos.scenario"),
        ("incast-on-dumbbell",
         lambda d: {**d, "workload": {"kind": "incast"}, "timing": None},
         "workload.kind"),
        ("incast-rounds-without-flow-bytes",
         lambda d: incast_spec(workload={"kind": "incast", "rounds": 3}),
         "workload.rounds"),
        ("incast-one-host",
         lambda d: incast_spec(topology={"kind": "single_switch",
                                         "params": {"hosts": 1}}),
         "topology.params.hosts"),
        ("incast-warmup",
         lambda d: incast_spec(timing={"warmup_ps": 1_000_000}), "timing"),
        ("incast-jitter-negative",
         lambda d: incast_spec(workload={"kind": "incast",
                                         "start_jitter_ps": -1}),
         "workload.start_jitter_ps"),
        ("incast-chaos",
         lambda d: incast_spec(chaos={"events": [
             {"kind": "link_down", "t_ps": 1, "a": "s0", "b": "h0"}]}),
         "chaos"),
        ("persistent-hosts",
         lambda d: {**d, "topology": {"kind": "single_switch",
                                      "params": {"hosts": 8}}},
         "topology.params.hosts"),
    ]

    @pytest.mark.parametrize("mutate",
                             [m for _n, m, _f in REJECTIONS],
                             ids=[n for n, _m, _f in REJECTIONS])
    def test_rejection_is_field_addressed(self, mutate):
        expected = {n: f for n, _m, f in self.REJECTIONS}
        name = next(n for n, m, _f in self.REJECTIONS if m is mutate)
        with pytest.raises(SpecError) as exc:
            Scenario.from_dict(mutate(base_spec()))
        fields = [fld for fld, _msg in exc.value.errors]
        assert expected[name] in fields, \
            f"{name}: expected field {expected[name]!r} in {fields}"

    def test_one_mistake_outside_the_sweep_is_one_line(self):
        """Each axis value used to re-report the whole spec's errors under
        its own index, inner field dropped: this spec printed nine lines."""
        bad = base_spec(seeds=[1, 1], sweep={
            "transport.protocol": ["expresspass", "dctcp", "rcp", "dx"],
            "workload.n_flows": [2, 3, 4, 5]})
        with pytest.raises(SpecError) as exc:
            Scenario.from_dict(bad)
        assert exc.value.errors == [("seeds", "duplicate seeds in [1, 1]")]

    def test_an_axis_values_own_error_names_its_index_and_inner_field(self):
        bad = base_spec(seeds=[1, 1], sweep={
            "workload.n_flows": [2, 3, 4, 0],
            "transport.protocol": ["expresspass", "quic"]})
        with pytest.raises(SpecError) as exc:
            Scenario.from_dict(bad)
        fields = [fld for fld, _msg in exc.value.errors]
        assert fields == ["seeds", "sweep.workload.n_flows[3]",
                          "sweep.transport.protocol[1]"]
        assert exc.value.errors[1][1].startswith("workload.n_flows: ")
        assert exc.value.errors[2][1].startswith(
            "transport.protocol: unknown")

    def test_duplicate_axis_value_names_the_value(self):
        with pytest.raises(SpecError) as exc:
            Scenario.from_dict(base_spec(sweep={
                "workload.n_flows": [2, 2]}))
        assert exc.value.errors == [
            ("sweep.workload.n_flows", "duplicate value 2")]

    def test_all_errors_collected_at_once(self):
        bad = base_spec(schema=None, name="",
                        transport={"protocol": "quic"})
        with pytest.raises(SpecError) as exc:
            Scenario.from_dict(bad)
        fields = {fld for fld, _ in exc.value.errors}
        assert {"schema", "name", "transport.protocol"} <= fields
        assert len(exc.value.render().splitlines()) == len(exc.value.errors)

    def test_fluid_refuses_an_incast_spec_by_name(self):
        with pytest.raises(SpecError) as exc:
            Scenario.from_dict(incast_spec(backend="fluid"))
        (fld, msg), = exc.value.errors
        assert fld == "workload.kind"
        assert "fluid' unavailable" in msg and "incast" in msg

    def test_load_poisson_workload_vocab(self):
        with pytest.raises(SpecError) as exc:
            Scenario.from_dict(poisson_spec(
                workload={"kind": "poisson", "distribution": "bitcoin"}))
        assert any(f == "workload.distribution" for f, _ in exc.value.errors)


class TestRoundTrip:
    def test_to_dict_from_dict_identity(self):
        s = Scenario.from_dict(base_spec(
            seeds=[3, 5], sweep={"transport.protocol": ["expresspass",
                                                        "dctcp"]}))
        assert Scenario.from_dict(s.to_dict()) == s

    def test_base_rtt_is_normalized_only_when_set(self):
        """Unset, ``base_rtt_ps`` is absent from the normalized form (so
        every existing task identity stays); set, it round-trips."""
        unset = Scenario.from_dict(base_spec())
        assert unset.to_dict()["topology"]["params"] == {}
        s = Scenario.from_dict(base_spec(
            topology={"kind": "fat_tree",
                      "params": {"k": 4, "base_rtt_ps": 40_000_000}}))
        assert s.to_dict()["topology"]["params"] == \
            {"k": 4, "base_rtt_ps": 40_000_000}
        assert Scenario.from_dict(s.to_dict()) == s
        assert compile_scenario(s).cells[0].task.kwargs["topo_params"] == \
            {"k": 4, "base_rtt_ps": 40_000_000}

    def test_incast_round_trips_with_its_switch_size(self):
        s = Scenario.from_dict(incast_spec())
        assert s.to_dict()["workload"] == {
            "kind": "incast", "n_flows": 6, "flow_bytes": 1000, "rounds": 3,
            "start_jitter_ps": 0}
        assert s.to_dict()["topology"]["params"] == \
            {"base_rtt_ps": 20_000_000, "hosts": 5}
        assert set(s.timing) == {"measure_ps"}
        assert Scenario.from_dict(s.to_dict()) == s

    def test_json_dump_load_identity(self):
        s = Scenario.from_dict(poisson_spec())
        text = scenarios.dumps(s, fmt="json")
        assert scenarios.loads(text, fmt="json") == s

    def test_yaml_dump_load_identity(self):
        pytest.importorskip("yaml")
        s = Scenario.from_dict(base_spec(tags=["a", "b"]))
        text = scenarios.dumps(s, fmt="yaml")
        assert scenarios.loads(text, fmt="yaml") == s

    def test_bundled_specs_round_trip(self):
        pytest.importorskip("yaml")
        for path in scenarios.iter_library():
            s = scenarios.load(path)
            text = scenarios.dumps(s, fmt="json")
            again = scenarios.loads(text, fmt="json", base_dir=path.parent)
            assert again == s, path.name


class TestLoader:
    def test_json_syntax_error_has_line(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{\n  "schema": ,\n}\n')
        with pytest.raises(SpecError) as exc:
            scenarios.load(p)
        assert exc.value.line == 2
        assert exc.value.errors[0][0] == "<syntax>"

    def test_yaml_syntax_error_has_line(self, tmp_path):
        pytest.importorskip("yaml")
        p = tmp_path / "bad.yaml"
        p.write_text("schema: repro.scenarios/v1\nname: [unclosed\n")
        with pytest.raises(SpecError) as exc:
            scenarios.load(p)
        assert exc.value.line is not None

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError) as exc:
            scenarios.load(tmp_path / "ghost.yaml")
        assert exc.value.errors[0][0] == "<file>"

    def test_resolve_spec_library_name(self):
        path = scenarios.resolve_spec("smoke_mini")
        assert path.name == "smoke_mini.yaml"

    def test_resolve_spec_unknown_lists_bundle(self):
        with pytest.raises(SpecError) as exc:
            scenarios.resolve_spec("fig99_imaginary")
        assert "smoke_mini" in exc.value.errors[0][1]

    def test_library_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIOS_DIR", str(tmp_path))
        assert scenarios.library_dir() == tmp_path
        assert list(scenarios.iter_library()) == []

    def test_lint_valid_and_invalid(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(base_spec()))
        assert scenarios.lint(good) == []
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base_spec(transport={"protocol": "quic"})))
        problems = scenarios.lint(bad)
        assert problems and problems[0][0] == "transport.protocol"


class TestCompiler:
    def test_cell_order_protocol_outer_seed_inner(self):
        s = Scenario.from_dict(base_spec(
            seeds=[1, 2],
            sweep={"transport.protocol": ["expresspass", "dctcp"],
                   "workload.n_flows": [2, 3]}))
        m = compile_scenario(s)
        assert len(m) == 8 == s.cell_count
        coords = [(dict(c.axes)["transport.protocol"],
                   dict(c.axes)["workload.n_flows"], c.seed)
                  for c in m.cells]
        assert coords == [("expresspass", 2, 1), ("expresspass", 2, 2),
                          ("expresspass", 3, 1), ("expresspass", 3, 2),
                          ("dctcp", 2, 1), ("dctcp", 2, 2),
                          ("dctcp", 3, 1), ("dctcp", 3, 2)]

    def test_deterministic_fingerprints_and_cache_keys(self):
        from repro.runtime import ResultCache

        cache = ResultCache.__new__(ResultCache)  # key_for needs no state
        spec = base_spec(sweep={"transport.protocol": ["expresspass",
                                                       "dctcp"]})
        m1 = compile_scenario(Scenario.from_dict(copy.deepcopy(spec)))
        m2 = compile_scenario(Scenario.from_dict(copy.deepcopy(spec)))
        fp1 = [c.fingerprint for c in m1.cells]
        fp2 = [c.fingerprint for c in m2.cells]
        assert fp1 == fp2
        k1 = [cache.key_for(c.task) for c in m1.cells]
        k2 = [cache.key_for(c.task) for c in m2.cells]
        assert k1 == k2
        assert len(set(k1)) == len(k1)  # every cell distinct

    @pytest.mark.parametrize("seeds,field", [
        ([1, 1], "--seeds"), ([1, "x"], "--seeds[1]"), ([True], "--seeds[0]")])
    def test_seeds_override_passes_the_spec_seed_check(self, seeds, field):
        s = Scenario.from_dict(base_spec())
        with pytest.raises(SpecError) as exc:
            compile_scenario(s, seeds=seeds)
        assert [fld for fld, _msg in exc.value.errors] == [field]

    def test_seeds_override(self):
        s = Scenario.from_dict(base_spec(seeds=[1]))
        m = compile_scenario(s, seeds=[7, 9])
        assert [c.seed for c in m.cells] == [7, 9]
        assert all(c.task.kwargs["seed"] == c.seed for c in m.cells)

    def test_persistent_kwargs_shape(self):
        s = Scenario.from_dict(base_spec())
        (cell,) = compile_scenario(s).cells
        kw = cell.task.kwargs
        assert kw["topology"] == "dumbbell"
        assert kw["protocol"] == "expresspass"
        assert kw["n_flows"] == 2
        assert "chaos_plan" not in kw and "topo_params" not in kw

    def test_incast_kwargs_shape(self):
        (cell,) = compile_scenario(Scenario.from_dict(incast_spec())).cells
        assert cell.task.fn.__name__ == "run_incast"
        assert cell.task.kwargs == {
            "protocol": "expresspass", "n_flows": 6, "flow_bytes": 1000,
            "rounds": 3, "start_jitter_ps": 0, "rate_bps": 10**10,
            "prop_delay_ps": 4_000_000, "measure_ps": 1_000_000_000,
            "seed": 1, "ep_profile": "default",
            "topo_params": {"base_rtt_ps": 20_000_000, "hosts": 5}}

    def test_poisson_kwargs_shape(self):
        s = Scenario.from_dict(poisson_spec())
        (cell,) = compile_scenario(s).cells
        kw = cell.task.kwargs
        assert kw["distribution"] == "web_search"
        assert kw["load"] == 0.3
        assert kw["drain_ps"] == 10**12

    def test_named_chaos_plan_seeded_per_cell(self):
        s = Scenario.from_dict(base_spec(
            topology={"kind": "fat_tree", "params": {"k": 4}},
            workload={"kind": "persistent", "n_flows": 4},
            timing={"warmup_ps": 1_000_000_000,
                    "measure_ps": 12_000_000_000},
            chaos={"scenario": "link-flap", "fault_ps": 2_000_000_000,
                   "duration_ps": 1_000_000_000},
            seeds=[1, 2]))
        m = compile_scenario(s)
        plans = [c.task.kwargs["chaos_plan"] for c in m.cells]
        assert [p["seed"] for p in plans] == [1, 2]
        assert all(p["name"] == "link-flap" for p in plans)

    def test_plan_file_chaos_embeds_events(self, tmp_path):
        from repro.chaos import FaultPlan
        from repro.chaos.plan import LinkDown

        plan = FaultPlan(name="file-plan", seed=5,
                         events=(LinkDown(t_ps=10, a="s0", b="L"),))
        plan_path = tmp_path / "plan.json"
        plan.save(plan_path)
        spec = base_spec(chaos={"plan": "plan.json"})
        s = Scenario.from_dict(spec, base_dir=tmp_path)
        (cell,) = compile_scenario(s).cells
        lowered = cell.task.kwargs["chaos_plan"]
        assert lowered["seed"] == 5  # file seed kept without chaos.seed
        assert lowered["events"][0]["kind"] == "link_down"

    def test_chaos_window_checked_at_compile(self):
        s = Scenario.from_dict(base_spec(
            topology={"kind": "fat_tree", "params": {"k": 4}},
            workload={"kind": "persistent", "n_flows": 4},
            timing={"warmup_ps": 1_000_000_000,
                    "measure_ps": 2_000_000_000},
            chaos={"scenario": "link-flap", "fault_ps": 6_000_000_000,
                   "duration_ps": 4_000_000_000}))
        with pytest.raises(SpecError) as exc:
            compile_scenario(s)
        assert any("chaos.fault_ps" in f for f, _ in exc.value.errors)

    def test_cross_axis_conflict_caught_at_compile(self):
        # k=6 base makes n_flows=27 valid alone and k=4 valid alone, but
        # the (k=4, n=27) combination exceeds the fat tree's pair budget.
        s = Scenario.from_dict(base_spec(
            topology={"kind": "fat_tree", "params": {"k": 6}},
            workload={"kind": "persistent", "n_flows": 8},
            sweep={"topology.params.k": [4, 6],
                   "workload.n_flows": [8, 27]}))
        with pytest.raises(SpecError) as exc:
            compile_scenario(s)
        assert any("k=4" in f and "n_flows=27" in f
                   for f, _ in exc.value.errors)

    def test_filter_semantics(self):
        s = Scenario.from_dict(base_spec(
            seeds=[1, 2],
            sweep={"transport.protocol": ["expresspass", "dctcp"]}))
        m = compile_scenario(s)
        assert len(m.filtered("protocol=dctcp").cells) == 2
        assert len(m.filtered("protocol=dctcp seed=1").cells) == 1
        assert len(m.filtered("express").cells) == 2  # substring
        assert len(m.filtered("protocol=quic").cells) == 0
        cell = m.cells[0]
        assert match_cell(cell, "transport.protocol=expresspass")


class TestReport:
    ROWS = [
        {"cell": "u[protocol=a seed=1]", "protocol": "a", "seed": 1,
         "utilization": 0.9, "max_queue_kb": 5.0, "cached": False,
         "wall_s": 0.1},
        {"cell": "u[protocol=a seed=2]", "protocol": "a", "seed": 2,
         "utilization": 0.8, "max_queue_kb": 7.0, "cached": False,
         "wall_s": 0.1},
        {"cell": "u[protocol=b seed=1]", "protocol": "b", "seed": 1,
         "utilization": 0.95, "max_queue_kb": 300.0, "cached": False,
         "wall_s": 0.1},
        {"cell": "u[protocol=b seed=2]", "protocol": "b", "seed": 2,
         "error": "boom", "cached": False, "wall_s": 0.1},
    ]

    def test_grouping_ranking_and_failures(self):
        rep = build_report("u", list(self.ROWS),
                           objectives={"utilization": "max",
                                       "max_queue_kb": "min"})
        assert rep.meta["failed"] == 1
        a = next(g for g in rep.groups if g["protocol"] == "a")
        assert a["utilization"] == pytest.approx(0.85)
        assert a["cells"] == 2
        # a: rank 1 on queue (5+7 avg=6 < 300), rank 1 on util? b=0.95 > a.
        # scores: a = 1 (util) + 0 (queue) = 1; b = 0 + 1 = 1 — tie broken
        # by name, so 'a' first.
        assert rep.ranking[0][0] == "a"
        assert [g["rank"] for g in rep.groups] == [1, 2]

    def test_default_objectives_from_available_metrics(self):
        rep = build_report("u", list(self.ROWS))
        assert set(rep.objectives) == {"utilization", "max_queue_kb"}

    def test_jsonl_round_trip_and_validation(self, tmp_path):
        rep = build_report("u", list(self.ROWS),
                           objectives={"utilization": "max"})
        out = tmp_path / "report.jsonl"
        n = scenarios.write_report_jsonl(out, rep)
        stats = validate_report_jsonl(out)
        assert stats["lines"] == n
        assert stats["records"]["cell"] == 4
        assert stats["records"]["rank"] == 2
        again = scenarios.load_report_jsonl(out)
        assert again.rows == rep.rows
        assert again.ranking == [list(t) if isinstance(t, list) else t
                                 for t in rep.ranking] or \
            [tuple(t) for t in again.ranking] == rep.ranking

    def test_validate_rejects_missing_header(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"record": "cell", "cell": "x"}\n')
        with pytest.raises(ValueError, match="meta/schema header"):
            validate_report_jsonl(p)

    def test_validate_rejects_unknown_record(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"record": "meta",
                                 "schema": scenarios.REPORT_SCHEMA}) + "\n"
                     + '{"record": "blob"}\n')
        with pytest.raises(ValueError, match="unknown record"):
            validate_report_jsonl(p)

    def test_csv_writes_rows_with_handle(self, tmp_path):
        import io

        rep = build_report("u", list(self.ROWS))
        buf = io.StringIO()
        n = scenarios.write_report_csv(buf, rep)
        lines = buf.getvalue().strip().splitlines()
        assert n == 4 and len(lines) == 5
        assert lines[0].startswith("cell,protocol,seed")
