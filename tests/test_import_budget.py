"""Import budget (DESIGN.md §16): a verb imports what it executes.

Each check runs in a fresh interpreter — ``sys.modules`` of the test
process says nothing, the suite has long since imported everything — with
a ``sys.meta_path`` spy that notes, for every module, who asked for it
first.  A failure therefore reads ``repro.sim.engine (imported by
repro.scenarios.cells)``: the module that broke the budget *and* the line
of the import graph to cut.

The child starts with ``-S``: ``site`` runs every ``.pth`` file in
site-packages before the spy exists, and such a hook may import stdlib
modules the program never asks for (certifi's CA hook, where installed,
pulls in ``tempfile``).  The child then appends the site directories to
``sys.path`` itself — without their ``.pth`` files — so third-party
packages (PyYAML) stay importable, and records what start-up loaded.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Runs ``BODY`` under the spy, then writes what got loaded to ``OUT``.
_CHILD = r"""
import json, os, site, sys

sys.path += [d for d in ([site.getusersitepackages()]
                         if site.check_enableusersite() else [])
             + site.getsitepackages() if os.path.isdir(d)]
pulled = {}

class _Spy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get(
                "__name__", "").startswith(("importlib", "_frozen_importlib")):
            frame = frame.f_back
        pulled.setdefault(
            name, frame.f_globals.get("__name__", "?") if frame else "?")
        return None

sys.meta_path.insert(0, _Spy)
startup = sorted(sys.modules)
out = None
BODY
with open(sys.argv[1], "w") as fh:
    json.dump({"loaded": sorted(sys.modules), "startup": startup,
               "pulled": pulled, "out": out}, fh)
"""

#: ``cli.main(argv)`` with stdout captured into ``out``.
_MAIN = """
import contextlib, io
from repro import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = cli.main(sys.argv[2:])
out = {"rc": rc, "stdout": buf.getvalue()}
"""

#: What no warm path may load: the packet simulator and the worker pool.
SIMULATOR = ("repro.sim.engine", "repro.net", "repro.experiments.runner",
             "multiprocessing")

#: Stdlib modules no front-end path may load (DESIGN §16): ``dataclasses``
#: imports ``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and
#: ``_hashlib`` is OpenSSL, which ``import hashlib`` loads even for BLAKE2.
HEAVY_STDLIB = ("dataclasses", "inspect", "_hashlib")

#: What ``import repro.cli`` may not load: everything behind the front end.
FRONT_END_ONLY = ("repro.sim.engine", "repro.net", "repro.transport",
                  "repro.topology", "repro.core", "repro.experiments",
                  "repro.chaos", "multiprocessing")


def _env(tmp_path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return dict(env, PYTHONPATH=str(REPO / "src"),
                REPRO_CACHE_DIR=str(tmp_path / "cache"), REPRO_PROGRESS="0")


def _spy(tmp_path, body: str, *argv: str) -> dict:
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD.replace("BODY", body), str(out),
         *argv],
        capture_output=True, text=True, env=_env(tmp_path), cwd=str(REPO),
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def _under(mod: str, roots) -> bool:
    return any(mod == root or mod.startswith(root + ".") for root in roots)


def _assert_not_loaded(doc: dict, forbidden, what: str) -> None:
    offenders = [
        f"{mod} (loaded at interpreter start-up, before the program ran)"
        if mod in doc["startup"] else
        f"{mod} (imported by {doc['pulled'].get(mod, '?')})"
        for mod in doc["loaded"] if _under(mod, forbidden)]
    assert not offenders, f"{what} loaded " + ", ".join(offenders)


def _spec(tmp_path, backend: str) -> str:
    path = tmp_path / f"budget_{backend}.json"
    path.write_text(json.dumps({
        "schema": "repro.scenarios/v1",
        "name": f"budget_{backend}",
        "backend": backend,
        "topology": {"kind": "dumbbell", "rate_bps": 10_000_000_000},
        "workload": {"kind": "persistent", "n_flows": 2},
        "timing": {"warmup_ps": 200_000_000, "measure_ps": 300_000_000,
                   "bin_ps": 100_000_000},
        "seeds": [1],
        "sweep": {"transport.protocol": ["expresspass", "dctcp"]},
        "report": {"compare": "transport.protocol"},
    }))
    return str(path)


def test_the_spy_names_the_importer_and_start_up_preloads_nothing(tmp_path):
    """The harness can still fail: a real import is caught and blamed on
    its importer, and start-up under ``-S`` loads no forbidden root — so
    no budget check below passes or fails on what ``site`` did."""
    doc = _spy(tmp_path, "import tempfile")
    with pytest.raises(AssertionError,
                       match=r"tempfile \(imported by __main__\)"):
        _assert_not_loaded(doc, ("tempfile",), "import tempfile")
    preloaded = [m for m in doc["startup"]
                 if _under(m, SIMULATOR + ("tempfile",) + FRONT_END_ONLY)]
    assert not preloaded, f"interpreter start-up loaded {preloaded}"


def test_importing_the_cli_stays_inside_the_front_end(tmp_path):
    doc = _spy(tmp_path, "import repro.cli")
    ours = [m for m in doc["loaded"] if m == "repro" or m.startswith("repro.")]
    assert len(ours) <= 20, f"import repro.cli loaded {len(ours)}: {ours}"
    _assert_not_loaded(doc, FRONT_END_ONLY, "import repro.cli")


#: ``repro run fig19`` at a few milliseconds of simulated time per cell.
_FIG19 = ("run", "fig19", "--set", "protocols=expresspass,dctcp",
          "--set", "n_flows=5", "--set", "drain_ps=5000000000")


@pytest.mark.parametrize("case", ["fluid", "packet", "run-fig19"])
def test_fully_cached_matrix_never_loads_the_simulator(tmp_path, case):
    """A warm ``repro matrix`` on either backend, and a warm ``repro run``
    of a spec-compiled figure (which imports that figure's module and no
    other experiment), are cache reads: no engine, no pool — and for
    ``matrix``, none of the heavy stdlib either (``run --set`` reads the
    figure's signature with ``inspect``)."""
    argv = _FIG19 if case == "run-fig19" else ("matrix", _spec(tmp_path, case))
    prime = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=_env(tmp_path), cwd=str(REPO),
        timeout=300)
    assert prime.returncode == 0, prime.stderr
    if case == "run-fig19":
        doc = _spy(tmp_path, _MAIN, *argv, "--json")
        assert doc["out"]["rc"] == 0
        assert json.loads(doc["out"]["stdout"])["rows"]
    else:
        doc = _spy(tmp_path, _MAIN, *argv, "--json",
                   "--report-jsonl", str(tmp_path / "report.jsonl"),
                   "--report-csv", str(tmp_path / "report.csv"))
        assert doc["out"]["rc"] == 0
        meta = json.loads(doc["out"]["stdout"])["meta"]
        assert meta["cached"] == meta["cells"] == 2, meta
        _assert_not_loaded(doc, HEAVY_STDLIB, f"cached {case}")
    _assert_not_loaded(doc, SIMULATOR, f"cached {case}")


def test_fluid_cells_execute_without_the_packet_engine(tmp_path):
    """Cold cache, so the miss path — compute, then write the entry —
    runs: it needs neither the packet engine nor ``tempfile`` (and the
    ``random``/``bz2``/``lzma`` it drags in) to create one file, nor any
    of the heavy stdlib."""
    doc = _spy(tmp_path, _MAIN, "matrix", _spec(tmp_path, "fluid"), "--json")
    assert doc["out"]["rc"] == 0
    meta = json.loads(doc["out"]["stdout"])["meta"]
    assert meta["cached"] == 0 and meta["failed"] == 0, meta
    assert len(list((tmp_path / "cache").glob("*.pkl"))) == 2
    _assert_not_loaded(doc, SIMULATOR + ("tempfile",) + HEAVY_STDLIB,
                       "serial fluid matrix")


def test_packet_cells_execute_without_openssl(tmp_path):
    """The packet miss path builds topology and core records (those stay
    dataclasses), but neither its cache keys nor the engine's per-flow
    random streams load OpenSSL: both hash with the builtin BLAKE2."""
    doc = _spy(tmp_path, _MAIN, "matrix", _spec(tmp_path, "packet"), "--json")
    assert doc["out"]["rc"] == 0
    meta = json.loads(doc["out"]["stdout"])["meta"]
    assert meta["cached"] == 0 and meta["failed"] == 0, meta
    assert "repro.sim.engine" in doc["loaded"]
    _assert_not_loaded(doc, ("_hashlib",), "serial packet matrix")


def test_scenarios_validate_never_loads_the_simulator(tmp_path):
    doc = _spy(tmp_path, _MAIN, "scenarios", "validate",
               _spec(tmp_path, "packet"))
    assert doc["out"]["rc"] == 0, doc["out"]
    _assert_not_loaded(doc, SIMULATOR + ("repro.chaos",) + HEAVY_STDLIB,
                       "scenarios validate")


def test_listing_the_experiments_imports_none_of_them(tmp_path):
    """``repro list`` reads each experiment's summary line from its
    source: no experiment module, no simulator, no heavy stdlib."""
    doc = _spy(tmp_path, _MAIN, "list")
    assert doc["out"]["rc"] == 0
    assert "fig10" in doc["out"]["stdout"]
    _assert_not_loaded(doc, SIMULATOR + ("repro.experiments",)
                       + HEAVY_STDLIB, "list")


@pytest.mark.parametrize("argv", [
    ("scenarios", "list"),
    ("chaos", "list"),
    ("scenarios", "validate",
     str(REPO / "scenarios" / "fabric_chaos_recovery.yaml")),
], ids=lambda argv: "-".join(argv[:2]))
def test_naming_chaos_scenarios_never_loads_the_controller(tmp_path, argv):
    """Listing or validating a ``chaos`` section needs the plan vocabulary,
    not ``chaos.controller`` → ``repro.net`` → the engine."""
    doc = _spy(tmp_path, _MAIN, *argv)
    assert doc["out"]["rc"] == 0, doc["out"]
    assert "repro.chaos" in doc["loaded"]
    _assert_not_loaded(doc, SIMULATOR + ("repro.chaos.controller",),
                       " ".join(argv[:2]))
