"""Every ``REPRO_*`` knob is inert on a row, or it is part of the cache key.

A result cache keyed on ``identity + code fingerprint`` is only sound if
nothing outside the key changes what a cell computes.  An environment
variable is the easiest way to break that: a knob that alters a row while
leaving the key alone lets a warm cache serve rows computed under other
conditions.  So the property runs over every knob ``src/`` names: set it
to a valid non-default value, run a small matrix through the CLI, and
require that the stable report bytes equal the unset run's — or, failing
that, that the compiled cells' cache keys differ.  A new knob joins
:data:`VALUES` or this file fails.

The second half pins the one knob that did break it: a fault plan is
declared by a spec's ``chaos`` section, and an environment variable naming
one is inert.
"""

import ast
import json
import pathlib
import re
import shutil

import pytest

from repro import cli
from repro import scenarios as sc
from repro.chaos import FaultPlan, LinkDown
from repro.obs import trace as obs_trace
from repro.runtime import config
from repro.runtime.cache import ResultCache
from repro.scenarios.report import _stable_dict
from repro.sim.engine import Simulator
from repro.sim.units import MS
from repro.topology.simple import dumbbell

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
KNOB = re.compile(r"REPRO_[A-Z_]+")

#: One valid, non-default value per knob.  ``{tmp}`` is the run's own
#: directory; ``{tmp}/scenarios`` holds a copy of the bundled library.
VALUES = {
    "REPRO_AUDIT": "1",
    "REPRO_CACHE_DIR": "{tmp}/cache",
    "REPRO_CACHE_MAX_BYTES": "1",
    "REPRO_CACHE_MAX_ENTRIES": "1",
    "REPRO_JOURNAL": "{tmp}/run.jsonl",
    "REPRO_METRICS": "1",
    "REPRO_METRICS_INTERVAL_PS": "100000000",
    "REPRO_NO_CACHE": "1",
    "REPRO_PARALLEL": "2",
    "REPRO_PROFILE": "1",
    "REPRO_PROGRESS": "1",
    "REPRO_RETRIES": "0",
    "REPRO_SCENARIOS_DIR": "{tmp}/scenarios",
    "REPRO_SELFCHAOS": "cache:torn",
    "REPRO_SELFCHAOS_DIR": "{tmp}/selfchaos",
    "REPRO_TASK_TIMEOUT": "60",
    "REPRO_TRACE": "{tmp}/trace.jsonl",
}

#: Knobs that only act alongside another one.
COMPANIONS = {
    "REPRO_METRICS_INTERVAL_PS": {"REPRO_METRICS": "1"},
    "REPRO_SELFCHAOS": {"REPRO_SELFCHAOS_DIR": "{tmp}/selfchaos"},
}

#: Two persistent packet cells: small enough to run once per knob.
SPEC = {
    "schema": "repro.scenarios/v1", "name": "knob_probe",
    "topology": {"kind": "dumbbell"},
    "workload": {"kind": "persistent", "n_flows": 2},
    "timing": {"warmup_ps": MS // 2, "measure_ps": 1 * MS},
    "seeds": [1],
    "sweep": {"transport.protocol": ["expresspass", "dctcp"]},
}


def scan_knobs() -> set:
    """Every ``REPRO_*`` name a string constant in ``src/`` spells out,
    docstrings aside (a docstring may mention a variable only tests read)."""
    names = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {
            id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in docstrings
                    and KNOB.fullmatch(node.value)):
                names.add(node.value)
    return names


def _write_spec(directory: pathlib.Path, **extra) -> pathlib.Path:
    path = directory / "spec.json"
    path.write_text(json.dumps({**SPEC, **extra}))
    return path


def _run(spec: pathlib.Path, run_dir: pathlib.Path, env: dict,
         *flags: str):
    """``repro matrix spec`` in process under exactly ``env`` of the
    knobs; returns (stable report bytes, meta record, cell cache keys)."""
    run_dir.mkdir(parents=True, exist_ok=True)
    report = run_dir / "report.jsonl"
    with pytest.MonkeyPatch.context() as mp:
        for name in (*VALUES, "REPRO_CHAOS"):
            mp.delenv(name, raising=False)
        # Unset REPRO_CACHE_DIR must not mean the user's cache.
        mp.setenv("XDG_CACHE_HOME", str(run_dir / "xdg"))
        for name, value in env.items():
            mp.setenv(name, value)
        # The suite pins a config for every test; a knob only reaches the
        # CLI through the environment when no config is active.
        mp.setattr(config, "_ACTIVE", None)
        obs_trace.reset()
        try:
            status = cli.main(["matrix", str(spec), "--report-jsonl",
                               str(report), *flags])
            cells = sc.compile_scenario(sc.load(spec)).cells
        finally:
            obs_trace.reset()
    assert status == 0, (env, status)
    records = [json.loads(line) for line in report.read_text().splitlines()]
    stable = "".join(json.dumps(_stable_dict(r)) + "\n" for r in records)
    cache = ResultCache(run_dir / "keys")
    return (stable.encode(), records[0],
            [cache.key_for(cell.task) for cell in cells])


@pytest.fixture(scope="module")
def spec(tmp_path_factory) -> pathlib.Path:
    return _write_spec(tmp_path_factory.mktemp("knob-spec"))


@pytest.fixture(scope="module")
def unset(spec, tmp_path_factory):
    rows, _meta, keys = _run(spec, tmp_path_factory.mktemp("unset"), {})
    return rows, keys


def test_value_table_names_exactly_the_knobs_src_reads():
    assert scan_knobs() == set(VALUES)


@pytest.mark.parametrize("knob", sorted(VALUES))
def test_knob_leaves_rows_alone_or_changes_the_key(knob, spec, unset,
                                                   tmp_path):
    if knob == "REPRO_SCENARIOS_DIR":
        shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    env = {name: value.format(tmp=tmp_path) for name, value in
           {**COMPANIONS.get(knob, {}), knob: VALUES[knob]}.items()}
    rows, _meta, keys = _run(spec, tmp_path, env)
    unset_rows, unset_keys = unset
    assert rows == unset_rows or not set(keys) & set(unset_keys), (
        f"{knob} changed the rows but not the cache key")


# -- fault plans come from the spec, never from the environment --------------

def _down_plan(directory: pathlib.Path) -> pathlib.Path:
    path = directory / "down.json"
    FaultPlan(name="down", seed=1, events=(
        LinkDown(t_ps=1 * MS, a="L", b="R"),)).save(path)
    return path


def test_an_ambient_plan_variable_neither_faults_nor_poisons_the_cache(
        tmp_path):
    plan = _down_plan(tmp_path)
    spec = _write_spec(tmp_path, sweep={"transport.protocol": ["expresspass"]})
    cache = {"REPRO_CACHE_DIR": str(tmp_path / "cache")}
    clean, _, _ = _run(spec, tmp_path / "clean", cache, "--no-cache")
    ambient, meta, _ = _run(spec, tmp_path / "ambient",
                            {**cache, "REPRO_CHAOS": str(plan)})
    assert meta["cached"] == 0
    warm, meta, _ = _run(spec, tmp_path / "warm", cache)
    assert meta["cached"] == 1
    assert clean == ambient == warm

    (tmp_path / "faulted").mkdir()
    faulted_spec = _write_spec(tmp_path / "faulted",
                               sweep={"transport.protocol": ["expresspass"]},
                               chaos={"plan": str(plan)})
    faulted, _, _ = _run(faulted_spec, tmp_path / "faulted", cache)
    assert faulted != clean


def test_building_a_network_attaches_no_plan_from_the_environment(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CHAOS", str(_down_plan(tmp_path)))
    sim = Simulator(seed=1)
    dumbbell(sim, n_pairs=1)
    assert sim.chaos is None
