"""Fluid-vs-packet agreement: the fast backend is pinned to the slow one.

The fluid backend (:mod:`repro.sim.fluid`) trades per-packet fidelity for
speed; its license to exist is staying inside *declared* tolerances of the
packet engine on the steady-state metrics the scenario matrix reports.
This suite runs both backends on the same (protocol, topology) cells over
identical measurement windows and asserts agreement on utilization, Jain
fairness, peak queue, and convergence time.

Tolerance notes (all measured against the packet engine at seed 1):

- ``UTIL_TOL``: aggregate utilization is the fluid model's calibrated
  quantity and agrees to < 0.01 everywhere; 0.05 leaves seed headroom.
- ``FAIRNESS_TOL``: per-flow splits depend on packet-level event ordering
  the fluid model deliberately averages away.  The dumbbell band covers
  credit-race jitter; fat-tree is loosest because the packet fabric's
  per-flow ECMP hash outcomes vary where the fluid fabric models the
  *average* collision group (see ``_fluid_fabric``).
- ``QUEUE_TOL_KB``: the fluid standing queue is a per-protocol constant
  (ExpressPass bounded at a few MTU, DCTCP at its marking threshold), so
  the band is absolute, per protocol.
- ``CONV_TOL_MS``: both backends report first-sustained-throughput over
  500 us bins, so agreement is only meaningful to a bin or three.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scenarios.cells import run_persistent
from repro.sim.fluid import (
    PROTOCOL_DYNAMICS,
    Dynamics,
    FluidFlow,
    FluidLink,
    FluidNetwork,
    fluid_fct_point,
    fluid_join_convergence,
    run_fluid,
)
from repro.sim.units import GBPS, MS, US

# -- declared agreement tolerances -------------------------------------------

UTIL_TOL = 0.05
FAIRNESS_TOL = {"dumbbell": 0.15, "parking_lot": 0.10, "fat_tree": 0.30}
QUEUE_TOL_KB = {"expresspass": 12.0, "dctcp": 25.0}
CONV_TOL_MS = 1.5

#: Short but post-convergence windows: every protocol under test reaches
#: steady state well inside 5 ms at 10 G.
WARMUP_PS = 5 * MS
MEASURE_PS = 5 * MS

AGREEMENT_CASES = [
    ("expresspass", "dumbbell", None),
    ("expresspass", "parking_lot", None),
    ("expresspass", "fat_tree", {"k": 4}),
    ("dctcp", "dumbbell", None),
]


@pytest.mark.parametrize(
    "protocol,topology,topo_params", AGREEMENT_CASES,
    ids=[f"{p}-{t}" for p, t, _ in AGREEMENT_CASES])
def test_fluid_agrees_with_packet(protocol, topology, topo_params):
    common = dict(protocol=protocol, n_flows=4, topology=topology,
                  topo_params=topo_params, warmup_ps=WARMUP_PS,
                  measure_ps=MEASURE_PS, seed=1)
    packet = run_persistent(**common)
    fluid = run_fluid(**common)

    assert fluid["backend"] == "fluid"
    assert abs(fluid["utilization"] - packet["utilization"]) <= UTIL_TOL, \
        f"utilization: fluid {fluid['utilization']:.4f} " \
        f"vs packet {packet['utilization']:.4f}"
    assert abs(fluid["fairness"] - packet["fairness"]) \
        <= FAIRNESS_TOL[topology], \
        f"fairness: fluid {fluid['fairness']:.4f} " \
        f"vs packet {packet['fairness']:.4f}"
    assert abs(fluid["max_queue_kb"] - packet["max_queue_kb"]) \
        <= QUEUE_TOL_KB[protocol], \
        f"queue: fluid {fluid['max_queue_kb']:.1f} " \
        f"vs packet {packet['max_queue_kb']:.1f} kB"
    assert packet["convergence_ms"] >= 0 and fluid["convergence_ms"] >= 0
    assert abs(fluid["convergence_ms"] - packet["convergence_ms"]) \
        <= CONV_TOL_MS


def test_fluid_row_shape_matches_packet():
    """Matrix plumbing reads both row kinds off one shape."""
    common = dict(protocol="expresspass", n_flows=2,
                  warmup_ps=WARMUP_PS, measure_ps=MEASURE_PS)
    packet = run_persistent(**common)
    fluid = run_fluid(**common)
    assert set(fluid) - set(packet) == {"backend"}
    assert fluid["data_drops"] == 0


@pytest.mark.parametrize("topology, column", [
    ("parking_lot", "min_link_utilization"),
    ("multi_bottleneck", "flow0_gbps")])
def test_family_columns_are_packet_only(topology, column):
    """The parking lot's and the multi-bottleneck's figure column reads
    per-port / per-flow packet state; both backends take the same
    ``base_rtt_ps``, whose 30 us default is the unset value."""
    common = dict(protocol="expresspass", n_flows=3, topology=topology,
                  warmup_ps=MS, measure_ps=MS)
    packet = run_persistent(**common)
    fluid = run_fluid(**common)
    assert set(packet) - set(fluid) == {column}
    thirty = {"topo_params": {"base_rtt_ps": 30 * US}}
    assert run_persistent(**common, **thirty) == packet
    assert run_fluid(**common, **thirty) == fluid


def test_fluid_is_deterministic():
    kwargs = dict(protocol="expresspass", n_flows=4,
                  topology="parking_lot", warmup_ps=WARMUP_PS,
                  measure_ps=MEASURE_PS)
    assert run_fluid(**kwargs) == run_fluid(**kwargs)


def test_every_protocol_has_fluid_dynamics():
    """Any protocol the runner can sweep must run on the fluid backend."""
    from repro.experiments.runner import PROTOCOLS

    for protocol in PROTOCOLS:
        assert protocol in PROTOCOL_DYNAMICS
        row = run_fluid(protocol=protocol, n_flows=2,
                        warmup_ps=MS, measure_ps=MS)
        assert 0.0 < row["utilization"] <= 1.001


# -- trend modes (Figs 16 and 18) --------------------------------------------

def test_join_convergence_trends():
    """Fig 16's class structure: ExpressPass/RCP in a few RTTs, DCTCP far
    more; halving α increases the convergence time; and the RTT count is
    link-speed independent (the paper's headline claim)."""
    ep = fluid_join_convergence("expresspass", 10 * GBPS)
    ep_slow = fluid_join_convergence("expresspass", 10 * GBPS, alpha=1 / 16)
    dctcp = fluid_join_convergence("dctcp", 10 * GBPS)
    rcp = fluid_join_convergence("rcp", 10 * GBPS)
    assert ep["converged"] and dctcp["converged"] and rcp["converged"]
    assert ep["convergence_rtts"] < ep_slow["convergence_rtts"]
    assert ep_slow["convergence_rtts"] < dctcp["convergence_rtts"]
    assert rcp["convergence_rtts"] <= 5

    ep_100g = fluid_join_convergence("expresspass", 100 * GBPS)
    assert ep_100g["convergence_rtts"] == ep["convergence_rtts"]


def test_fct_point_tradeoff():
    """Fig 18's trade-off: short flows pay for small w_init (slower ramp),
    large flows gain from small α (less credit waste)."""
    aggressive = fluid_fct_point(1 / 2, 1 / 2, "cache_follower", 0.6, 300)
    sweet = fluid_fct_point(1 / 16, 1 / 16, "cache_follower", 0.6, 300)
    assert aggressive["p99_fct_S_ms"] < sweet["p99_fct_S_ms"]
    assert sweet["p99_fct_L_ms"] < aggressive["p99_fct_L_ms"]
    assert sweet["credit_waste"] < aggressive["credit_waste"]

    # S-flow FCT tracks w_init only: α shapes post-congestion waste.
    same_w = fluid_fct_point(1 / 16, 1 / 2, "cache_follower", 0.6, 300)
    assert same_w["p99_fct_S_ms"] == pytest.approx(
        aggressive["p99_fct_S_ms"], rel=1e-9)


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="no fluid dynamics"):
        run_fluid(protocol="carrier-pigeon", n_flows=2)


# -- exactness: retarget-on-boundary vs water-filling every step -------------
#
# The network water-fills only when a flow-start boundary is crossed; the
# allocation is a function of the active set, routes and capacities alone.
# These tests pin that to the per-step recompute it replaced, with ``==``:
# accumulation order is part of the contract, so there is no tolerance.

_RTT_PS = 30 * US


class _EveryStepReference:
    """The fluid step written the slow, obvious way: rebuild the active
    list and call ``max_min_shares`` afresh on *every* step, then three
    separate passes (relax, per-link inflow, deliver)."""

    def __init__(self, links, flows, dynamics, rtt_ps):
        self.links = [copy.copy(link) for link in links]
        self.flows = [copy.copy(flow) for flow in flows]
        self.dynamics = dynamics
        self.rtt_ps = rtt_ps
        self.now_ps = 0
        self.oracle = FluidNetwork(self.links, self.flows, dynamics, rtt_ps)

    def step(self):
        dt_s = self.rtt_ps * 1e-12
        dyn = self.dynamics
        active = [i for i, f in enumerate(self.flows)
                  if f.start_ps <= self.now_ps]
        if active:
            targets = self.oracle.max_min_shares(active)
            gain = min(1.0, dyn.gain_per_rtt)
            for idx, target in zip(active, targets):
                flow = self.flows[idx]
                if flow.rate_bps == 0.0:
                    flow.rate_bps = dyn.start_fraction * target
                flow.rate_bps += gain * (target - flow.rate_bps)
        inflow = [0.0] * len(self.links)
        for idx in active:
            flow = self.flows[idx]
            for l in flow.route:
                inflow[l] += flow.rate_bps
        for l, link in enumerate(self.links):
            cap = link.capacity_bps
            arriving = min(inflow[l], cap) if dyn.credit_throttled \
                else inflow[l]
            link.queue_bytes = max(
                0.0, link.queue_bytes + (arriving - cap) * dt_s / 8)
            standing = dyn.queue_bytes if inflow[l] >= 0.5 * cap else 0.0
            link.max_queue_bytes = max(link.max_queue_bytes,
                                       link.queue_bytes + standing)
        for idx in active:
            flow = self.flows[idx]
            flow.delivered_bytes += flow.rate_bps * dt_s / 8
        self.now_ps += self.rtt_ps


def _state(net):
    return ([f.rate_bps for f in net.flows],
            [f.delivered_bytes for f in net.flows],
            [l.queue_bytes for l in net.links],
            [l.max_queue_bytes for l in net.links])


@st.composite
def _fabrics(draw):
    n_links = draw(st.integers(1, 6))
    links = [FluidLink(draw(st.sampled_from([1, 10, 25, 40, 100])) * GBPS)
             for _ in range(n_links)]
    # Start times on a half-RTT grid (several flows per boundary, half of
    # the boundaries between two steps) or anywhere in the first 8 RTTs.
    start = st.one_of(st.just(0),
                      st.integers(0, 16).map(lambda k: k * _RTT_PS // 2),
                      st.integers(0, 8 * _RTT_PS))
    route = st.lists(st.integers(0, n_links - 1), max_size=n_links,
                     unique=True).map(tuple)
    flows = [FluidFlow(route=draw(route), start_ps=draw(start))
             for _ in range(draw(st.integers(1, 24)))]
    dynamics = draw(st.one_of(
        st.sampled_from(sorted(PROTOCOL_DYNAMICS)).map(PROTOCOL_DYNAMICS.get),
        st.builds(Dynamics,
                  utilization=st.floats(0.5, 1.0),
                  gain_per_rtt=st.floats(0.01, 1.5),
                  queue_bytes=st.integers(0, 400_000),
                  start_fraction=st.floats(0.01, 1.0),
                  credit_throttled=st.booleans())))
    return links, flows, dynamics


@pytest.mark.slow
@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(_fabrics())
def test_step_equals_water_filling_every_step(fabric):
    links, flows, dynamics = fabric
    ref = _EveryStepReference(links, flows, dynamics, _RTT_PS)
    net = FluidNetwork([copy.copy(link) for link in links],
                       [copy.copy(flow) for flow in flows],
                       dynamics, _RTT_PS)
    for step in range(14):   # last possible boundary is at step 8
        net.step()
        ref.step()
        assert net.now_ps == ref.now_ps
        assert _state(net) == _state(ref), f"diverged at step {step + 1}"


def test_dumbbell_cell_water_fills_once(monkeypatch):
    """Every flow of a ``run_fluid`` cell starts at 0, so the active set
    — and with it the allocation — is decided once for the whole run."""
    calls = []
    inner = FluidNetwork.max_min_shares

    def counting(self, active):
        calls.append(list(active))
        return inner(self, active)

    monkeypatch.setattr(FluidNetwork, "max_min_shares", counting)
    run_fluid(protocol="expresspass", n_flows=8,
              warmup_ps=WARMUP_PS, measure_ps=MEASURE_PS)
    assert calls == [list(range(8))]


def test_water_fills_once_per_start_boundary():
    calls = []

    class Counting(FluidNetwork):
        def max_min_shares(self, active):
            calls.append(list(active))
            return super().max_min_shares(active)

    flows = [FluidFlow(route=(0,)),
             FluidFlow(route=(0,), start_ps=2 * _RTT_PS),
             FluidFlow(route=(0,), start_ps=2 * _RTT_PS),
             FluidFlow(route=(0,), start_ps=4 * _RTT_PS + 1)]
    net = Counting([FluidLink(10 * GBPS)], flows,
                   PROTOCOL_DYNAMICS["dctcp"], _RTT_PS)
    net.run(20 * _RTT_PS)
    assert calls == [[0], [0, 1, 2], [0, 1, 2, 3]]


# -- construction-time validation --------------------------------------------

@pytest.mark.parametrize("route", [(1,), (0, 2), (-1,)])
def test_route_outside_the_fabric_rejected_at_construction(route):
    flows = [FluidFlow(route=(0,)), FluidFlow(route=route)]
    with pytest.raises(ValueError, match=r"flow 1 .*link"):
        FluidNetwork([FluidLink(10 * GBPS)], flows,
                     PROTOCOL_DYNAMICS["expresspass"], _RTT_PS)


def test_sampling_without_a_sink_rejected():
    net = FluidNetwork([FluidLink(10 * GBPS)], [FluidFlow(route=(0,))],
                       PROTOCOL_DYNAMICS["expresspass"], _RTT_PS)
    with pytest.raises(ValueError, match="samples"):
        net.run(10 * _RTT_PS, sample_every_ps=5 * _RTT_PS)
    assert net.now_ps == 0


def test_structure_is_frozen_at_construction():
    """The allocation is memoised between start boundaries, so the inputs
    it depends on cannot change under it: a later edit to a caller's
    link, route or start time does not reach the network."""
    links = [FluidLink(10 * GBPS), FluidLink(10 * GBPS)]
    flows = [FluidFlow(route=(0,)), FluidFlow(route=(0,))]
    net = FluidNetwork(links, flows, PROTOCOL_DYNAMICS["ideal"], _RTT_PS)
    twin = FluidNetwork([copy.copy(l) for l in links],
                        [copy.copy(f) for f in flows],
                        PROTOCOL_DYNAMICS["ideal"], _RTT_PS)
    net.step()
    twin.step()
    links[0].capacity_bps = 1 * GBPS
    flows[1].route = (1,)
    flows[1].start_ps = 10 * _RTT_PS
    assert net.max_min_shares([0, 1]) == twin.max_min_shares([0, 1])
    net.step()
    twin.step()
    assert [f.rate_bps for f in net.flows] == [f.rate_bps for f in twin.flows]
    assert [f.delivered_bytes for f in net.flows] \
        == [f.delivered_bytes for f in twin.flows]


# -- golden rows --------------------------------------------------------------
#
# ``tests/golden/fluid_rows.json`` was generated from the per-step
# water-filling model (the commit before retarget-on-boundary) and is
# compared with ``==``.  Regenerate — only for a deliberate model change —
# with:
#
#     REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_fluid.py -q

_GOLDEN_ROWS = pathlib.Path(__file__).parent / "golden" / "fluid_rows.json"
_GOLDEN_PROTOCOLS = ("expresspass", "dctcp", "rcp", "dcqcn")
_GOLDEN_TOPOLOGIES = ("dumbbell", "single_switch", "fat_tree",
                      "parking_lot", "multi_bottleneck")
_GOLDEN_FLOWS = (4, 16)


def _golden_rows() -> dict:
    return {f"{protocol}/{topology}/{n_flows}":
            run_fluid(protocol=protocol, n_flows=n_flows, topology=topology,
                      warmup_ps=WARMUP_PS, measure_ps=MEASURE_PS)
            for protocol in _GOLDEN_PROTOCOLS
            for topology in _GOLDEN_TOPOLOGIES
            for n_flows in _GOLDEN_FLOWS}


def test_golden_fluid_rows():
    rows = _golden_rows()
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        _GOLDEN_ROWS.write_text(json.dumps(rows, indent=1, sort_keys=True)
                                + "\n")
        pytest.skip(f"regenerated {_GOLDEN_ROWS.name}")
    assert _GOLDEN_ROWS.exists(), (
        f"missing golden fixture {_GOLDEN_ROWS}; "
        "run with REPRO_REGEN_GOLDEN=1")
    golden = json.loads(_GOLDEN_ROWS.read_text())
    assert sorted(rows) == sorted(golden)
    for case in rows:
        assert rows[case] == golden[case], case
