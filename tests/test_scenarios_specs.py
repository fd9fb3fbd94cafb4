"""Spec-driven coverage: every bundled scenario validates and compiles.

Dropping a new spec file into ``scenarios/`` adds it to this suite with no
new test code — ``pytest_generate_tests`` parametrizes over the library.
Specs tagged ``smoke`` additionally get their cheapest cell executed.
"""

from __future__ import annotations

import importlib

import pytest

pytest.importorskip("yaml")

from repro import scenarios  # noqa: E402

pytestmark = pytest.mark.scenario


def pytest_generate_tests(metafunc):
    if "spec_path" in metafunc.fixturenames:
        paths = list(scenarios.iter_library())
        metafunc.parametrize("spec_path", paths,
                             ids=[p.stem for p in paths])


def test_library_is_nonempty():
    stems = [p.stem for p in scenarios.iter_library()]
    assert "smoke_mini" in stems
    assert "fig15_flow_scalability" in stems
    assert "fig19_realistic_fct" in stems


@pytest.mark.parametrize("figure", ["fig15_flow_scalability",
                                    "fig19_realistic_fct"])
def test_bundled_figure_spec_is_its_scenario_dict(figure):
    """The bundled spec says it is the twin of its figure module's
    ``scenario_dict()``: both compile to the same tasks."""
    module = importlib.import_module(f"repro.experiments.{figure}")
    bundled = scenarios.compile_scenario(
        scenarios.load(scenarios.resolve_spec(figure)))
    built = scenarios.compile_scenario(
        scenarios.Scenario.from_dict(module.scenario_dict()))
    assert [c.fingerprint for c in bundled.cells] == \
        [c.fingerprint for c in built.cells]


def test_spec_lints_clean(spec_path):
    assert scenarios.lint(spec_path) == []


def test_spec_compiles_with_stable_fingerprints(spec_path, spec_compile):
    matrix = spec_compile(spec_path)
    scenario = scenarios.load(spec_path)
    assert len(matrix) == scenario.cell_count > 0
    fingerprints = [c.fingerprint for c in matrix.cells]
    assert len(set(fingerprints)) == len(fingerprints)
    again = spec_compile(spec_path)
    assert [c.fingerprint for c in again.cells] == fingerprints


def test_spec_compiles_under_both_backends(spec_path, spec_compile):
    """Every bundled spec compiles on the packet backend; specs whose
    workload/chaos the fluid model can express compile there too, with
    distinct cell fingerprints (the cache must never conflate backends)."""
    scenario = scenarios.load(spec_path)
    packet = spec_compile(spec_path, backend="packet")
    assert len(packet) == scenario.cell_count

    blockers = scenarios.fluid_blockers(scenario.workload, scenario.chaos)
    if blockers:
        with pytest.raises(scenarios.SpecError):
            spec_compile(spec_path, backend="fluid")
        pytest.skip("fluid backend unavailable: " + "; ".join(blockers))

    fluid = spec_compile(spec_path, backend="fluid")
    assert len(fluid) == scenario.cell_count
    packet_prints = {c.fingerprint for c in packet.cells}
    fluid_prints = {c.fingerprint for c in fluid.cells}
    assert not packet_prints & fluid_prints


def test_spec_round_trips(spec_path):
    scenario = scenarios.load(spec_path)
    text = scenarios.dumps(scenario, fmt="json")
    assert scenarios.loads(text, fmt="json",
                           base_dir=spec_path.parent) == scenario


def test_smoke_tagged_specs_execute(spec_path, spec_compile):
    scenario = scenarios.load(spec_path)
    if "smoke" not in scenario.tags:
        pytest.skip("only smoke-tagged specs execute in the test suite")
    matrix = spec_compile(spec_path, seeds=[1])
    cell = matrix.cells[0]
    value = cell.task.fn(**dict(cell.task.kwargs))
    assert value["seed"] == 1
    assert value["protocol"] == dict(cell.axes).get("transport.protocol",
                                                    value["protocol"])
