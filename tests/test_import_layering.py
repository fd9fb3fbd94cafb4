"""Laziness can neither hide a broken module nor change the API (DESIGN §16).

The package facades resolve their re-exports on first access and the cell
functions import the simulator when they run, so collecting the suite no
longer imports every module in a known-good order.  These tests put back
what that used to prove by accident: every module imports on its own, each
facade still exports exactly what it did, and the stdlib-only vocabularies
say what their implementing modules accept.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.scenarios import Scenario, SpecError

REPO = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = pathlib.Path(repro.__file__).parent

SUBPACKAGES = sorted(p.name for p in PACKAGE.iterdir()
                     if (p / "__init__.py").is_file())
#: ``__main__`` is the CLI entry point: importing it runs the program.
TOP_MODULES = sorted(p.stem for p in PACKAGE.glob("*.py")
                     if p.stem not in ("__init__", "__main__"))

FACADES = ("repro", "repro.sim", "repro.experiments", "repro.obs",
           "repro.chaos", "repro.metrics")

_WALK = """
import importlib, pkgutil, sys
package = importlib.import_module(sys.argv[1])
for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
    importlib.import_module(info.name)
"""


def _fresh_interpreter(code: str, *argv: str) -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env=dict(env, PYTHONPATH=str(REPO / "src")), cwd=str(REPO),
        timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("subpackage", SUBPACKAGES)
def test_every_module_imports_first_in_a_fresh_interpreter(subpackage):
    """A cycle the old eager order happened to avoid, or a syntax error in
    a module nothing imports at collection any more, fails here."""
    _fresh_interpreter(_WALK, f"repro.{subpackage}")


@pytest.mark.parametrize("module", TOP_MODULES)
def test_every_top_level_module_imports_first(module):
    _fresh_interpreter(f"import repro.{module}")


@pytest.mark.parametrize("facade", FACADES)
def test_facade_exports_are_the_home_objects(facade):
    module = importlib.import_module(facade)
    home_of = {name: home for home, names in module._HOMES.items()
               for name in names}
    assert sorted(module.__all__) == sorted(home_of)
    listed = dir(module)
    for name, home in home_of.items():
        owner = importlib.import_module(home)
        expected = owner if home == f"{facade}.{name}" \
            else getattr(owner, name)
        assert getattr(module, name) is expected, (facade, name)
        assert name in listed, (facade, name)
    namespace: dict = {}
    exec(f"from {facade} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match=facade.replace(".", r"\.")):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {facade} import no_such_name", {})


def test_import_paths_that_worked_before_still_do():
    from repro import Simulator
    from repro.experiments import (
        PROTOCOLS, ExperimentResult, format_table, get_harness)
    from repro.experiments import runner, table
    from repro.sim import Simulator as SimSimulator
    from repro.sim.engine import Simulator as EngineSimulator
    from repro.vocab import PROTOCOLS as VOCAB_PROTOCOLS

    assert Simulator is SimSimulator is EngineSimulator
    assert runner.PROTOCOLS is PROTOCOLS is VOCAB_PROTOCOLS
    assert runner.ExperimentResult is ExperimentResult is table.ExperimentResult
    assert runner.format_table is format_table
    assert runner.get_harness is get_harness


def test_protocols_are_exactly_what_get_harness_builds():
    from repro.experiments.runner import ProtocolHarness, get_harness
    from repro.vocab import PROTOCOLS

    assert len(set(PROTOCOLS)) == len(PROTOCOLS)
    for name in PROTOCOLS:
        harness = get_harness(name, 10_000_000_000)
        assert isinstance(harness, ProtocolHarness) and harness.name == name
    for stranger in ("quic", "expresspass-", ""):
        with pytest.raises(ValueError, match="unknown protocol"):
            get_harness(stranger, 10_000_000_000)


def test_distribution_names_are_the_workload_table():
    from repro.vocab import DISTRIBUTIONS
    from repro.workloads import WORKLOADS

    assert DISTRIBUTIONS == tuple(WORKLOADS)
    assert all(WORKLOADS[name].name == name for name in DISTRIBUTIONS)


def test_chaos_section_still_validates_against_the_scenario_table():
    from repro.chaos.scenarios import SCENARIOS

    def spec(scenario: str) -> dict:
        return {
            "schema": "repro.scenarios/v1", "name": "layering",
            "topology": {"kind": "fat_tree", "params": {"k": 4}},
            "workload": {"kind": "persistent", "n_flows": 2},
            "chaos": {"scenario": scenario},
        }

    for name in SCENARIOS:
        assert Scenario.from_dict(spec(name)).chaos["scenario"] == name
    with pytest.raises(SpecError) as exc:
        Scenario.from_dict(spec("earthquake"))
    assert exc.value.errors == [
        ("chaos.scenario", f"unknown fault scenario 'earthquake'; "
                           f"choose from {sorted(SCENARIOS)}")]
