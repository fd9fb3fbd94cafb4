"""A cell's memory ends with the cell.

A finished packet simulation is one web of reference cycles (flows, ports,
hosts and pending events all point back at the simulator), so reference
counting never frees it.  The sweep scheduler collects once after every
task that constructed a simulator, and never after any other task
(``runtime/scheduler.py::_call``).  These tests switch automatic
collection off, so the scheduler's collect is the only thing that can
have freed what they find dead.
"""

import gc
import itertools
import weakref

import pytest

from repro import runtime
from repro.obs import trace as obs_trace
from repro.runtime import probes
from repro.sim import engine

PLANES = ("audit", "profile", "metrics", "trace")
SUBSETS = [subset for n in range(len(PLANES) + 1)
           for subset in itertools.combinations(PLANES, n)]

#: Two packet cells (one per transport), each a short dumbbell run.
SPEC = {
    "schema": "repro.scenarios/v1", "name": "cell_memory",
    "topology": {"kind": "dumbbell"},
    "workload": {"kind": "persistent", "n_flows": 2},
    "timing": {"warmup_ps": 1_000_000_000, "measure_ps": 1_000_000_000},
    "seeds": [1],
    "sweep": {"transport.protocol": ["expresspass", "dctcp"]},
}


@pytest.fixture(autouse=True)
def _no_automatic_collection():
    """Only an explicit ``gc.collect()`` frees cycles while a test runs;
    no ambient tracer leaks in (it would switch the trace plane on)."""
    obs_trace.reset()
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
    obs_trace.reset()


@pytest.fixture
def simulators(monkeypatch):
    """Weak references to every simulator built while the test runs."""
    refs = []
    prev = engine.on_simulator_created

    def record(sim):
        if prev is not None:
            prev(sim)
        refs.append(weakref.ref(sim))

    monkeypatch.setattr(engine, "on_simulator_created", record)
    return refs


@pytest.fixture
def collects(monkeypatch):
    """Calls of ``gc.collect`` while the test runs."""
    calls = []
    real = gc.collect

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gc, "collect", counting)
    return calls


def _run(subset=(), backend="packet", **config):
    from repro.scenarios import Scenario, run_matrix

    switches = {name: name in subset for name in PLANES}
    with probes.session(subset), \
            runtime.using(progress=False, retries=0, parallel=0,
                          **switches, **config):
        outcome = run_matrix(Scenario.from_dict(dict(SPEC, backend=backend)))
    assert outcome.ok and len(outcome.results) == 2
    return outcome


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "off")
def test_no_simulator_outlives_its_task(subset, simulators):
    outcome = _run(subset, cache_enabled=False)
    assert len(simulators) >= 2
    alive = [ref() for ref in simulators if ref() is not None]
    assert not alive, f"{len(alive)} simulator(s) outlived their task"
    assert all(set(r.probes) == set(subset) for r in outcome.results)


def test_one_collect_per_packet_task(collects):
    _run(cache_enabled=False)
    assert len(collects) == 2


def test_fluid_tasks_collect_nothing(collects, simulators):
    _run(backend="fluid", cache_enabled=False)
    assert simulators == [] and collects == []


def test_cache_served_tasks_collect_nothing(collects, tmp_path):
    _run(cache_enabled=True, cache_dir=tmp_path)
    assert len(collects) == 2
    outcome = _run(cache_enabled=True, cache_dir=tmp_path)
    assert all(r.cached for r in outcome.results)
    assert len(collects) == 2
