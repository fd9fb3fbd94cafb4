"""Plane neutrality as one property, and the probe protocol's plumbing.

Every observation plane (:mod:`repro.runtime.probes`: audit, profile,
metrics, trace) must be observation-only in *any* combination: the task
values of a sweep are byte-equal to the plain run whichever subset is on,
serial or on a pool, and each result carries exactly the payloads of the
planes it ran under.  The per-plane files (``test_audit.py``,
``test_obs.py``, ``test_perf.py``, ``test_trace.py``) keep their own
pairwise checks; this is the only place all sixteen subsets meet.
"""

import io
import itertools
import json

import pytest

from repro import runtime
from repro.audit.golden import diff_golden, load_golden
from repro.obs import trace as obs_trace
from repro.runtime import probes, run_tasks
from repro.runtime.config import RuntimeConfig
from repro.runtime.task import TaskSpec
from tests.test_golden_traces import GOLDEN_DIR, build_payload

PLANES = ("audit", "profile", "metrics", "trace")
SUBSETS = [subset for n in range(len(PLANES) + 1)
           for subset in itertools.combinations(PLANES, n)]
CELL = "dumbbell_expresspass"


@pytest.fixture(autouse=True)
def _clean_tracer():
    """No ambient tracer may leak in (or out): with one active the trace
    plane is on regardless of the switches under test."""
    obs_trace.reset()
    yield
    obs_trace.reset()


def _specs():
    return [TaskSpec(build_payload, {"name": CELL}, label=f"{CELL}#{i}")
            for i in range(2)]


def _bytes(results) -> bytes:
    """Canonical bytes of a sweep's values (JSON: a pickle of the list
    would also encode which strings two values happen to share)."""
    return json.dumps([r.value for r in results], sort_keys=True).encode()


def _run(subset, **config):
    switches = {name: name in subset for name in PLANES}
    with probes.session(subset) as sess, \
            runtime.using(progress=False, retries=0, **switches, **config):
        results = run_tasks(_specs(), name="neutrality")
    assert all(r.ok for r in results), [r.error for r in results]
    return results, sess


@pytest.fixture(scope="module")
def plain():
    obs_trace.reset()
    results, _ = _run((), parallel=0, cache_enabled=False)
    assert not diff_golden(load_golden(GOLDEN_DIR / f"{CELL}.json"),
                           results[0].value)
    return _bytes(results)


@pytest.mark.parametrize("parallel", [0, 2])
@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "off")
def test_any_subset_of_planes_is_observation_only(subset, parallel, plain):
    results, sess = _run(subset, parallel=parallel, cache_enabled=False)
    assert _bytes(results) == plain
    for r in results:
        assert set(r.probes) == set(subset)
        assert all(isinstance(p, dict) for p in r.probes.values())
    # The summaries that count simulations saw each task's exactly once:
    # the session's own outer capture claimed none of them.
    for name in {"audit", "metrics"} & set(subset):
        assert sess.merged(name)["runs"] == len(results)
    if "audit" in subset:
        assert sess.merged("audit")["ok"]


#: Seed replicas of a fluid cell share one task (DESIGN §12): 6 rows, 2 tasks.
FLUID_REPLICAS = {
    "schema": "repro.scenarios/v1", "name": "neutral_fluid",
    "backend": "fluid", "topology": {"kind": "dumbbell"},
    "workload": {"kind": "persistent", "n_flows": 2},
    "timing": {"warmup_ps": 2_000_000_000, "measure_ps": 2_000_000_000},
    "seeds": [1, 2, 3],
    "sweep": {"transport.protocol": ["expresspass", "dctcp"]},
}


def _fluid_rows(subset, parallel) -> bytes:
    from repro.scenarios import Scenario, run_matrix, write_report_jsonl

    switches = {name: name in subset for name in PLANES}
    with probes.session(subset), \
            runtime.using(progress=False, retries=0, cache_enabled=False,
                          parallel=parallel, **switches):
        outcome = run_matrix(Scenario.from_dict(FLUID_REPLICAS))
    assert outcome.ok and len(outcome.results) == 6
    for result in outcome.results:      # each cell shows its task's payloads
        assert set(result.probes) == set(subset)
    out = io.StringIO()
    write_report_jsonl(out, outcome.report, stable=True)
    return out.getvalue().encode()


@pytest.mark.parametrize("parallel", [0, 2])
@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "off")
def test_any_subset_of_planes_leaves_shared_fluid_tasks_alone(subset,
                                                              parallel):
    assert _fluid_rows(subset, parallel) == _fluid_rows((), 0)


@pytest.mark.parametrize("subset", [(), PLANES], ids=["off", "all"])
def test_cached_tasks_carry_no_payloads(subset, tmp_path, plain):
    config = dict(parallel=0, cache_enabled=True, cache_dir=tmp_path)
    first, _ = _run(subset, **config)
    assert not any(r.cached for r in first)
    again, sess = _run(subset, **config)
    assert all(r.cached for r in again)
    assert _bytes(again) == plain
    assert all(r.probes == {} for r in again)
    # Nothing executed, so nothing but the (idle) outer capture is banked.
    assert [label for label, _ in sess.banked] == [""] * bool(subset)


def test_config_probes_is_derived_from_the_four_switches():
    assert RuntimeConfig().probes == ()
    assert RuntimeConfig(metrics=True, audit=True).probes == \
        ("audit", "metrics")
    assert RuntimeConfig(audit=True, profile=True, metrics=True,
                         trace=True).probes == PLANES


def test_ambient_tracer_enables_the_trace_probe_for_tasks():
    assert probes.enabled(RuntimeConfig()) == ()
    with obs_trace.tracing():
        assert probes.enabled(RuntimeConfig()) == ("trace",)
        assert probes.enabled(RuntimeConfig(audit=True)) == \
            ("audit", "trace")


def test_registry_resolves_every_plane_to_a_conforming_probe():
    for name in PLANES:
        probe = probes.get(name)
        assert probe.name == name
        assert sorted(vars(probe)) == ["active", "capture", "format",
                                       "merge", "name"]
        for attr in ("capture", "merge", "format", "active"):
            assert callable(getattr(probe, attr)), (name, attr)
        with probe.capture() as handle:
            pass
        assert isinstance(handle.payload, dict)
        merged = probe.merge([handle.payload])
        assert isinstance(probe.format(merged), str)


def test_sessions_nest_and_bank_to_the_innermost():
    with probes.session(()) as outer:
        probes.bank("a", {"audit": {"runs": 1}})
        with probes.session(()) as inner:
            probes.bank("b", {"audit": {"runs": 1}})
        probes.bank("unobserved", {})
    assert [label for label, _ in inner.banked] == ["b"]
    assert [label for label, _ in outer.banked] == ["a"]
    probes.bank("nobody listening", {"audit": {}})  # no-op, no error
