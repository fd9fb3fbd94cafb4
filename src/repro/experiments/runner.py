"""Shared experiment plumbing: protocol harnesses and result tables.

A :class:`ProtocolHarness` hides the per-protocol differences the
experiments must not care about — which LinkSpec knobs to set (ECN marking
for DCTCP/HULL), what to install on the fabric after it is built (RCP link
controllers, HULL phantom queues, the ideal oracle), and how to construct a
flow.  ``get_harness(name, ...)`` is the registry; every figure/table
experiment builds its traffic through it so that all protocols see identical
topologies and arrival sequences.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.core import ExpressPassFlow, ExpressPassParams
from repro.experiments.table import ExperimentResult, format_table  # noqa: F401
from repro.runtime import SweepError, SweepPlan, run_tasks
from repro.net.host import Host
from repro.sim.engine import Simulator
from repro.sim.units import US
from repro.topology.network import LinkSpec, Network
from repro.net.pfc import install_pfc
from repro.transport import (
    CubicFlow,
    DcqcnFlow,
    DctcpFlow,
    DxFlow,
    HullFlow,
    IdealFlow,
    OracleRateController,
    RcpFlow,
    RenoFlow,
    TimelyFlow,
    install_dcqcn_marking,
    install_phantom_queues,
    install_rcp,
)
from repro.transport.dctcp import dctcp_gain, dctcp_marking_threshold_bytes
from repro.vocab import PROTOCOLS


def run_sweep(
    fn: Callable[..., Any],
    points: Iterable[Mapping[str, Any]],
    common: Optional[Mapping[str, Any]] = None,
    name: Optional[str] = None,
    label: Optional[Callable[[Mapping[str, Any]], str]] = None,
    strict: bool = False,
) -> List[Any]:
    """Run ``fn(**common, **point)`` for every point of a parameter grid.

    The doorway into :mod:`repro.runtime` for the hand-written sweeps that
    are not yet scenario specs — today fig16 and fig18 (the spec-compiled
    figures go through :func:`repro.scenarios.run_matrix`).  Execution
    policy (worker count, result cache, retries, ticker) comes from the
    active runtime config, so ``python -m repro run fig16 --parallel 4`` and
    ``REPRO_PARALLEL=4 pytest benchmarks/`` parallelise both with no
    experiment-side changes.  ``fn`` must be a module-level function and
    each point must carry everything the task needs (including its seed) —
    that is what makes tasks picklable, cacheable, and order-independent.

    Returns the per-point results **in grid order** (parallel execution is
    bit-identical to serial).  Tasks that still fail after the runtime's
    retry budget are dropped from the result (the sweep survives) unless
    ``strict=True``, in which case :class:`repro.runtime.SweepError` lists
    them.  A sweep in which *every* task failed raises regardless — that is
    a broken configuration (e.g. a bad protocol name), not a partial outage,
    and an empty table would bury the actual error.
    """
    plan = SweepPlan.from_grid(fn, points, common, name=name, label=label)
    results = run_tasks(plan)
    failures = [r for r in results if not r.ok]
    if failures and (strict or len(failures) == len(results)):
        raise SweepError(failures)
    return [r.value for r in results if r.ok]


class ProtocolHarness:
    """Per-protocol glue; see module docstring."""

    def __init__(
        self,
        name: str,
        flow_factory: Callable,
        link_mutator: Optional[Callable[[LinkSpec], LinkSpec]] = None,
        post_build: Optional[Callable[[Simulator, Network], None]] = None,
        flow_kwargs: Optional[dict] = None,
    ):
        self.name = name
        self._flow_factory = flow_factory
        self._link_mutator = link_mutator
        self._post_build = post_build
        self._flow_kwargs = flow_kwargs or {}

    def adapt_link(self, spec: LinkSpec) -> LinkSpec:
        """Apply protocol-required LinkSpec changes (e.g. ECN threshold)."""
        return self._link_mutator(spec) if self._link_mutator else spec

    def install(self, sim: Simulator, net: Network) -> None:
        """Install fabric-side components (RCP controllers, phantom queues)."""
        if self._post_build:
            self._post_build(sim, net)

    def flow(self, src: Host, dst: Host, size_bytes: Optional[int],
             start_ps: int = 0, **overrides):
        kwargs = dict(self._flow_kwargs)
        kwargs.update(overrides)
        return self._flow_factory(src, dst, size_bytes, start_ps, **kwargs)


def get_harness(
    name: str,
    link_rate_bps: int,
    base_rtt_ps: int = 100 * US,
    ep_params: Optional[ExpressPassParams] = None,
    min_rto_ps: Optional[int] = None,
) -> ProtocolHarness:
    """Build the harness for ``name`` (one of :data:`PROTOCOLS`).

    ``link_rate_bps`` sizes protocol constants that scale with speed (DCTCP
    K and g, HULL's marking threshold); ``base_rtt_ps`` seeds RTT-derived
    timers (ExpressPass update period hint, RCP's control interval).
    """
    if name in ("expresspass", "expresspass-naive"):
        params = ep_params or ExpressPassParams()
        params = replace(params, naive=(name == "expresspass-naive"),
                         rtt_hint_ps=base_rtt_ps)
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: ExpressPassFlow(
                s, d, size, t0, params=kw.pop("params", params), **kw),
        )

    window_kwargs = {}
    if min_rto_ps is not None:
        window_kwargs["min_rto_ps"] = min_rto_ps

    if name == "dctcp":
        k_bytes = dctcp_marking_threshold_bytes(link_rate_bps)
        g = dctcp_gain(link_rate_bps)
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: DctcpFlow(s, d, size, t0, g=g, **kw),
            link_mutator=lambda spec: replace(spec, ecn_threshold_bytes=k_bytes),
            flow_kwargs=window_kwargs,
        )
    if name == "hull":
        # HULL marks in the *phantom* queue; the real queue stays unmarked.
        thresh = max(3_000 * link_rate_bps // (10**10), 1_500)
        g = dctcp_gain(link_rate_bps)
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: HullFlow(s, d, size, t0, g=g, **kw),
            post_build=lambda sim, net: install_phantom_queues(
                net.ports, gamma=0.95, mark_threshold_bytes=thresh),
            flow_kwargs=window_kwargs,
        )
    if name == "rcp":
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: RcpFlow(s, d, size, t0, **kw),
            post_build=lambda sim, net: install_rcp(sim, net.ports, base_rtt_ps),
        )
    if name == "dx":
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: DxFlow(s, d, size, t0, **kw),
            flow_kwargs=window_kwargs,
        )
    if name == "reno":
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: RenoFlow(s, d, size, t0, **kw),
            flow_kwargs=window_kwargs,
        )
    if name == "cubic":
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: CubicFlow(s, d, size, t0, **kw),
            flow_kwargs=window_kwargs,
        )
    if name == "dcqcn":
        def _install_dcqcn(sim, net):
            install_dcqcn_marking(net.ports, sim=sim)
            install_pfc(sim, net.ports)
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: DcqcnFlow(s, d, size, t0, **kw),
            post_build=_install_dcqcn,
        )
    if name == "timely":
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: TimelyFlow(s, d, size, t0, **kw),
            post_build=lambda sim, net: install_pfc(sim, net.ports),
        )
    if name == "ideal":
        oracle = OracleRateController()
        return ProtocolHarness(
            name,
            lambda s, d, size, t0, **kw: IdealFlow(s, d, size, t0,
                                                   oracle=kw.pop("oracle", oracle), **kw),
        )
    raise ValueError(f"unknown protocol {name!r}; choose from {PROTOCOLS}")
