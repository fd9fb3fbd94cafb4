"""The declarative scenario schema: what a spec may say and what it means.

A *scenario* is plain data — ``topology × workload × transport × chaos ×
timing`` plus optional ``sweep`` axes — validated here into a normalized
:class:`Scenario`.  Validation is eager and total: every error carries the
field path that caused it (``workload.kind``, ``sweep.transport.protocol[2]``)
and all errors in a spec are collected before :class:`SpecError` is raised,
so ``repro scenarios validate`` can report everything at once.

The schema is versioned (:data:`SCHEMA`); a spec naming any other version is
rejected rather than half-interpreted.  ``Scenario.to_dict`` emits the fully
normalized form (defaults filled, sections ordered), and
``Scenario.from_dict(s.to_dict()) == s`` — the round-trip the test suite
pins.

Vocabularies are not restated here: transports and workload distributions
come from :mod:`repro.vocab` (the stdlib-only leaf their implementing modules
re-export), named fault scenarios from :data:`repro.chaos.scenarios.SCENARIOS`
once a spec has a ``chaos`` section — a new transport or chaos scenario
becomes sweepable with no schema change.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.units import GBPS, MS, SEC, US
from repro.vocab import DISTRIBUTIONS, PROTOCOLS

#: The one schema version this loader understands.
SCHEMA = "repro.scenarios/v1"

#: Topology families a spec may name, with the extra ``params`` each allows.
#: ``base_rtt_ps`` is the persistent and incast cells' control RTT (the
#: ExpressPass update-period hint, RCP's control interval, the fluid model's
#: step); unset, the cell's 30 us default applies.  The Poisson cell on
#: ``clos`` keeps its own 60 us.  ``hosts`` is an incast switch's size.
TOPOLOGY_KINDS: Dict[str, Tuple[str, ...]] = {
    "dumbbell": ("base_rtt_ps",),
    "single_switch": ("base_rtt_ps", "hosts"),
    "parking_lot": ("base_rtt_ps",),
    "multi_bottleneck": ("base_rtt_ps",),
    "fat_tree": ("k", "base_rtt_ps"),
    "clos": ("core_rate_bps",),
}

#: Workload kinds.  ``persistent`` = long-running pairs on a fixed topology
#: (Fig 13/15/16 style); ``poisson`` = Table-2 arrivals on the scaled Clos
#: (Fig 18-21 / Table 3 style); ``incast`` = workers fanning in to host 0 of
#: a ``single_switch`` (Fig 1, the closed-loop incast, the RDMA comparison).
WORKLOAD_KINDS = ("persistent", "poisson", "incast")

#: Engine backends a spec may select.  ``packet`` is the event-driven
#: simulator (ground truth); ``fluid`` is the discrete-time rate-evolution
#: model (:mod:`repro.sim.fluid`) — 10×+ faster, valid only where no
#: per-packet feature is needed (see :func:`fluid_blockers`).
BACKENDS = ("packet", "fluid")

#: ExpressPass parameter profiles a spec may select (resolved inside the
#: cell function so specs stay pure data).
EP_PROFILES = ("default", "realistic")

#: Dotted paths a ``sweep:`` section may vary.  ``seeds`` is an implicit
#: final axis and must not be listed here.
SWEEP_AXES = (
    "backend",
    "transport.protocol",
    "transport.ep_profile",
    "workload.n_flows",
    "workload.load",
    "workload.distribution",
    "workload.size_cap_bytes",
    "topology.rate_bps",
    "topology.prop_delay_ps",
    "topology.params.k",
    "topology.params.core_rate_bps",
    "timing.warmup_ps",
    "timing.measure_ps",
    "timing.bin_ps",
    "timing.drain_ps",
    "chaos.scenario",
    "chaos.fault_ps",
    "chaos.duration_ps",
)

_TOP_KEYS = ("schema", "name", "description", "tags", "backend", "topology",
             "workload", "transport", "timing", "chaos", "seeds", "sweep",
             "report")

_TIMING_KEYS = {
    "persistent": ("warmup_ps", "measure_ps", "bin_ps"),
    "poisson": ("drain_ps",),
    "incast": ("measure_ps",),
}

_TIMING_DEFAULTS = {
    "warmup_ps": 50 * MS,
    "measure_ps": 50 * MS,
    "bin_ps": 500 * US,
    "drain_ps": 1 * SEC,
}


class SpecError(ValueError):
    """One or more field-addressed validation failures in a spec.

    ``errors`` is a list of ``(field_path, message)`` pairs; ``source`` names
    the file (or ``<spec>`` for in-memory dicts); ``line`` is set for parse
    errors where the underlying parser reports one.
    """

    def __init__(self, errors, source: str = "<spec>",
                 line: Optional[int] = None):
        if isinstance(errors, tuple):
            errors = [errors]
        self.errors: List[Tuple[str, str]] = list(errors)
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        first_field, first_msg = self.errors[0]
        suffix = (f" (+{len(self.errors) - 1} more error(s))"
                  if len(self.errors) > 1 else "")
        super().__init__(f"{where}: {first_field}: {first_msg}{suffix}")

    def render(self) -> str:
        """All errors, one per line, ``source: field: message``."""
        where = self.source if self.line is None else f"{self.source}:{self.line}"
        return "\n".join(f"{where}: {fld}: {msg}" for fld, msg in self.errors)


class Scenario:
    """A validated, normalized scenario.  Sections are plain dicts."""

    def __init__(self, name: str, description: str = "",
                 tags: Tuple[str, ...] = (), backend: str = "packet",
                 topology: Optional[Dict[str, Any]] = None,
                 workload: Optional[Dict[str, Any]] = None,
                 transport: Optional[Dict[str, Any]] = None,
                 timing: Optional[Dict[str, Any]] = None,
                 chaos: Optional[Dict[str, Any]] = None,
                 seeds: Tuple[int, ...] = (1,),
                 sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...] = (),
                 report: Optional[Dict[str, Any]] = None,
                 base_dir: Optional[pathlib.Path] = None):
        self.name = name
        self.description = description
        self.tags = tags
        self.backend = backend
        self.topology = {} if topology is None else topology
        self.workload = {} if workload is None else workload
        self.transport = {} if transport is None else transport
        self.timing = {} if timing is None else timing
        self.chaos = chaos
        self.seeds = seeds
        #: Ordered ``(axis, values)`` pairs — declaration order is cell
        #: order.
        self.sweep = sweep
        self.report = {} if report is None else report
        #: Directory relative chaos plan paths resolve against (set by the
        #: loader; not part of the spec's identity, so not compared).
        self.base_dir = base_dir

    def __eq__(self, other) -> bool:
        if type(other) is not Scenario:
            return NotImplemented
        return ({**vars(self), "base_dir": None}
                == {**vars(other), "base_dir": None})

    def to_dict(self) -> dict:
        """The canonical, fully-normalized spec (round-trips via from_dict)."""
        out: Dict[str, Any] = {
            "schema": SCHEMA,
            "name": self.name,
            "description": self.description,
            "tags": list(self.tags),
            "backend": self.backend,
            "topology": dict(self.topology),
            "workload": dict(self.workload),
            "transport": dict(self.transport),
            "timing": dict(self.timing),
            "seeds": list(self.seeds),
            "sweep": {axis: list(values) for axis, values in self.sweep},
            "report": dict(self.report),
        }
        if self.chaos is not None:
            out["chaos"] = dict(self.chaos)
        return out

    @property
    def cell_count(self) -> int:
        n = len(self.seeds)
        for _axis, values in self.sweep:
            n *= len(values)
        return n

    @classmethod
    def from_dict(cls, data: Any, source: str = "<spec>",
                  base_dir: Optional[pathlib.Path] = None) -> "Scenario":
        """Validate ``data`` and build the normalized scenario.

        Raises :class:`SpecError` carrying *every* problem found.
        """
        return _validate(data, source, base_dir)


# -- validation ---------------------------------------------------------------

class _Check:
    """Error accumulator with field-path context."""

    def __init__(self, source: str):
        self.source = source
        self.errors: List[Tuple[str, str]] = []

    def fail(self, fld: str, msg: str) -> None:
        self.errors.append((fld, msg))

    def raise_if_failed(self) -> None:
        if self.errors:
            raise SpecError(self.errors, source=self.source)


def _require_map(chk: _Check, data: Any, fld: str) -> dict:
    if data is None:
        return {}
    if not isinstance(data, dict):
        chk.fail(fld, f"expected a mapping, got {type(data).__name__}")
        return {}
    return data


def _pos_int(chk: _Check, value: Any, fld: str, default: int) -> int:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        chk.fail(fld, f"expected an integer, got {value!r}")
        return default
    if value <= 0:
        chk.fail(fld, f"must be positive, got {value}")
        return default
    return value


def _unknown_keys(chk: _Check, data: dict, allowed, fld: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        chk.fail(fld, f"unknown key(s) {unknown}; allowed: {sorted(allowed)}")


def _validate_topology(chk: _Check, data: dict) -> dict:
    topo = _require_map(chk, data.get("topology"), "topology")
    _unknown_keys(chk, topo, ("kind", "rate_bps", "prop_delay_ps", "params"),
                  "topology")
    kind = topo.get("kind", "dumbbell")
    if kind not in TOPOLOGY_KINDS:
        chk.fail("topology.kind",
                 f"unknown kind {kind!r}; choose from {sorted(TOPOLOGY_KINDS)}")
        kind = "dumbbell"
    rate = _pos_int(chk, topo.get("rate_bps"), "topology.rate_bps", 10 * GBPS)
    prop = _pos_int(chk, topo.get("prop_delay_ps"), "topology.prop_delay_ps",
                    4 * US)
    params = _require_map(chk, topo.get("params"), "topology.params")
    allowed = TOPOLOGY_KINDS[kind]
    _unknown_keys(chk, params, allowed, "topology.params")
    norm_params: Dict[str, Any] = {}
    if kind == "fat_tree":
        k = _pos_int(chk, params.get("k"), "topology.params.k", 4)
        if k % 2 or k < 2:
            chk.fail("topology.params.k",
                     f"fat tree arity must be even and >= 2, got {k}")
        norm_params["k"] = k
    if kind == "clos" and params.get("core_rate_bps") is not None:
        norm_params["core_rate_bps"] = _pos_int(
            chk, params.get("core_rate_bps"),
            "topology.params.core_rate_bps", rate)
    if "base_rtt_ps" in allowed and params.get("base_rtt_ps") is not None:
        norm_params["base_rtt_ps"] = _pos_int(
            chk, params.get("base_rtt_ps"), "topology.params.base_rtt_ps", 0)
    if "hosts" in allowed and params.get("hosts") is not None:
        norm_params["hosts"] = hosts = _pos_int(
            chk, params["hosts"], "topology.params.hosts", 2)
        if hosts < 2:
            chk.fail("topology.params.hosts", "an incast switch needs a "
                     f"master and >= 1 worker host, got {hosts}")
    return {"kind": kind, "rate_bps": rate, "prop_delay_ps": prop,
            "params": norm_params}


def _validate_workload(chk: _Check, data: dict, topology: dict) -> dict:
    wl = _require_map(chk, data.get("workload"), "workload")
    kind = wl.get("kind", "persistent")
    if kind not in WORKLOAD_KINDS:
        chk.fail("workload.kind",
                 f"unknown kind {kind!r}; choose from {sorted(WORKLOAD_KINDS)}")
        kind = "persistent"
    n_flows = _pos_int(chk, wl.get("n_flows"), "workload.n_flows",
                       {"persistent": 4, "incast": 8}.get(kind, 1200))
    if kind == "incast":
        return _validate_incast(chk, wl, topology, n_flows)
    if kind == "persistent":
        _unknown_keys(chk, wl, ("kind", "n_flows"), "workload")
        topo_kind = topology["kind"]
        if "hosts" in topology["params"]:
            chk.fail("topology.params.hosts",
                     "only incast workloads size the switch; a persistent "
                     "single_switch has 2 × n_flows hosts")
        if topo_kind == "clos":
            chk.fail("workload.kind",
                     "persistent workloads need a concrete topology "
                     "(dumbbell/single_switch/parking_lot/multi_bottleneck/"
                     "fat_tree); 'clos' is reserved for poisson workloads")
        if topo_kind in ("parking_lot", "multi_bottleneck") and n_flows < 2:
            chk.fail("workload.n_flows",
                     f"{topo_kind} needs >= 2 flows (one long + cross flows)")
        if topo_kind == "fat_tree":
            half = topology["params"].get("k", 4) // 2
            if n_flows > half ** 3:
                chk.fail("workload.n_flows",
                         f"k={half * 2} fat tree supports at most "
                         f"{half ** 3} inter-pod pairs, got {n_flows}")
        return {"kind": kind, "n_flows": n_flows}
    # poisson
    _unknown_keys(chk, wl, ("kind", "n_flows", "distribution", "load",
                            "size_cap_bytes"), "workload")
    if topology["kind"] != "clos":
        chk.fail("workload.kind",
                 "poisson workloads run on the oversubscribed Clos; set "
                 "topology.kind: clos")
    dist = wl.get("distribution", "web_search")
    if dist not in DISTRIBUTIONS:
        chk.fail("workload.distribution",
                 f"unknown distribution {dist!r}; "
                 f"choose from {sorted(DISTRIBUTIONS)}")
    load = wl.get("load", 0.6)
    if isinstance(load, bool) or not isinstance(load, (int, float)) \
            or not 0 < load <= 1:
        chk.fail("workload.load", f"load must be in (0, 1], got {load!r}")
        load = 0.6
    cap = wl.get("size_cap_bytes", 20_000_000)
    if cap is not None:
        cap = _pos_int(chk, cap, "workload.size_cap_bytes", 20_000_000)
    return {"kind": kind, "n_flows": n_flows, "distribution": dist,
            "load": float(load), "size_cap_bytes": cap}


def _validate_incast(chk: _Check, wl: dict, topology: dict,
                     n_flows: int) -> dict:
    """Fan-in to host 0 of a ``single_switch``; ``rounds`` need bytes."""
    _unknown_keys(chk, wl, ("kind", "n_flows", "flow_bytes", "rounds",
                            "start_jitter_ps"), "workload")
    if topology["kind"] != "single_switch":
        chk.fail("workload.kind",
                 "incast workloads fan in to one switch; set "
                 "topology.kind: single_switch")
    flow_bytes = wl.get("flow_bytes")
    if flow_bytes is not None:
        flow_bytes = _pos_int(chk, flow_bytes, "workload.flow_bytes", 1)
    rounds = wl.get("rounds")
    if rounds is not None:
        rounds = _pos_int(chk, rounds, "workload.rounds", 1)
        if flow_bytes is None:
            chk.fail("workload.rounds",
                     "closed-loop rounds need a response size; set "
                     "workload.flow_bytes")
    jitter = wl.get("start_jitter_ps", 0)
    if isinstance(jitter, bool) or not isinstance(jitter, int) or jitter < 0:
        chk.fail("workload.start_jitter_ps",
                 f"expected a non-negative integer, got {jitter!r}")
        jitter = 0
    elif jitter and rounds is not None:
        chk.fail("workload.start_jitter_ps",
                 "closed-loop waves start together; jitter applies to "
                 "persistent or one-shot workers only")
    return {"kind": "incast", "n_flows": n_flows, "flow_bytes": flow_bytes,
            "rounds": rounds, "start_jitter_ps": jitter}


def _validate_transport(chk: _Check, data: dict) -> dict:
    tr = _require_map(chk, data.get("transport"), "transport")
    _unknown_keys(chk, tr, ("protocol", "ep_profile"), "transport")
    protocol = tr.get("protocol", "expresspass")
    if protocol not in PROTOCOLS:
        chk.fail("transport.protocol",
                 f"unknown transport {protocol!r}; "
                 f"choose from {sorted(PROTOCOLS)}")
    profile = tr.get("ep_profile", "default")
    if profile not in EP_PROFILES:
        chk.fail("transport.ep_profile",
                 f"unknown profile {profile!r}; choose from {EP_PROFILES}")
    return {"protocol": protocol, "ep_profile": profile}


def _validate_timing(chk: _Check, data: dict, workload_kind: str) -> dict:
    timing = _require_map(chk, data.get("timing"), "timing")
    if "shards" in timing:
        # Valid in older specs; the generic unknown-key text would not say
        # that dropping it is safe.
        chk.fail("timing.shards",
                 "removed along with single-simulation sharding (DESIGN "
                 "§13): delete this key — it never changed a result row")
        timing = {k: v for k, v in timing.items() if k != "shards"}
    allowed = _TIMING_KEYS.get(workload_kind, _TIMING_KEYS["persistent"])
    _unknown_keys(chk, timing, allowed, "timing")
    return {key: _pos_int(chk, timing.get(key), f"timing.{key}",
                          _TIMING_DEFAULTS[key])
            for key in allowed}


def _validate_chaos(chk: _Check, data: dict, topology: dict,
                    base_dir: Optional[pathlib.Path]) -> Optional[dict]:
    raw = data.get("chaos")
    if raw is None:
        return None
    from repro.chaos.plan import event_from_dict
    from repro.chaos.scenarios import SCENARIOS

    chaos = _require_map(chk, raw, "chaos")
    modes = [m for m in ("scenario", "plan", "events") if m in chaos]
    if len(modes) != 1:
        chk.fail("chaos", "exactly one of 'scenario', 'plan', or 'events' "
                          f"must be set, got {modes or 'none'}")
        return None
    if "scenario" in chaos:
        _unknown_keys(chk, chaos, ("scenario", "fault_ps", "duration_ps",
                                   "reconverge_delay_ps"), "chaos")
        name = chaos["scenario"]
        if name not in SCENARIOS:
            chk.fail("chaos.scenario",
                     f"unknown fault scenario {name!r}; "
                     f"choose from {sorted(SCENARIOS)}")
        if topology["kind"] != "fat_tree":
            chk.fail("chaos.scenario",
                     "named fault scenarios target the k=4 fat-tree fabric; "
                     "set topology.kind: fat_tree (or use inline 'events')")
        return {
            "scenario": name,
            "fault_ps": _pos_int(chk, chaos.get("fault_ps"),
                                 "chaos.fault_ps", 6 * MS),
            "duration_ps": _pos_int(chk, chaos.get("duration_ps"),
                                    "chaos.duration_ps", 4 * MS),
            "reconverge_delay_ps": _pos_int(
                chk, chaos.get("reconverge_delay_ps"),
                "chaos.reconverge_delay_ps", 200 * US),
        }
    if "plan" in chaos:
        _unknown_keys(chk, chaos, ("plan", "seed"), "chaos")
        path = chaos["plan"]
        if not isinstance(path, str) or not path:
            chk.fail("chaos.plan", f"expected a file path, got {path!r}")
        else:
            resolved = pathlib.Path(path)
            if not resolved.is_absolute() and base_dir is not None:
                resolved = base_dir / resolved
            if not resolved.exists():
                chk.fail("chaos.plan", f"fault-plan file not found: {resolved}")
        out: Dict[str, Any] = {"plan": path}
        if chaos.get("seed") is not None:
            out["seed"] = _pos_int(chk, chaos["seed"], "chaos.seed", 1)
        return out
    # inline events
    _unknown_keys(chk, chaos, ("events", "seed", "reconverge_delay_ps"),
                  "chaos")
    events = chaos["events"]
    if not isinstance(events, list) or not events:
        chk.fail("chaos.events", "expected a non-empty list of fault events")
        events = []
    normalized = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            chk.fail(f"chaos.events[{i}]", "expected a mapping")
            continue
        try:
            normalized.append(event_from_dict(ev).to_dict())
        except (ValueError, TypeError) as exc:
            chk.fail(f"chaos.events[{i}]", str(exc))
    out = {"events": normalized,
           "reconverge_delay_ps": _pos_int(
               chk, chaos.get("reconverge_delay_ps"),
               "chaos.reconverge_delay_ps", 200 * US)}
    if chaos.get("seed") is not None:
        out["seed"] = _pos_int(chk, chaos["seed"], "chaos.seed", 1)
    return out


def fluid_blockers(workload: Dict[str, Any],
                   chaos: Optional[Dict[str, Any]]) -> List[str]:
    """Why the fluid backend cannot run this scenario (empty = it can).

    The fluid model has no per-packet events, so anything that *is* a
    per-packet feature blocks it: Poisson flow arrivals with FCT accounting
    (each flow's completion is a packet-level fact) and chaos fault
    injection (loss bursts, link flaps act on packets in flight).  The
    schema refuses such specs eagerly; the spec-driven test suite uses the
    same list to skip fluid compilation with a reason.
    """
    reasons = []
    kind = workload.get("kind")
    if kind != "persistent":
        reasons.append(f"workload.kind: fluid models persistent rate "
                       f"evolution only; {kind} traffic needs per-packet "
                       f"events")
    if chaos is not None:
        reasons.append("chaos: fault injection acts on packets in flight; "
                       "use the packet backend")
    return reasons


def _validate_backend(chk: _Check, data: dict, workload: dict,
                      chaos: Optional[dict]) -> str:
    backend = data.get("backend", "packet")
    if backend not in BACKENDS:
        chk.fail("backend",
                 f"unknown backend {backend!r}; choose from {BACKENDS}")
        return "packet"
    if backend == "fluid":
        for reason in fluid_blockers(workload, chaos):
            fld, _, msg = reason.partition(": ")
            chk.fail(fld, f"backend 'fluid' unavailable: {msg}")
    return backend


def validate_seeds(chk: _Check, seeds: Any,
                   fld: str = "seeds") -> Tuple[int, ...]:
    """The spec's ``seeds`` — or, as ``fld="--seeds"``, its override."""
    if isinstance(seeds, bool) or isinstance(seeds, int):
        seeds = [seeds]
    if not isinstance(seeds, (list, tuple)) or not seeds:
        chk.fail(fld, f"expected a non-empty list of integers, "
                      f"got {seeds!r}")
        return (1,)
    out = []
    for i, s in enumerate(seeds):
        if isinstance(s, bool) or not isinstance(s, int):
            chk.fail(f"{fld}[{i}]", f"expected an integer, got {s!r}")
            continue
        out.append(s)
    if len(set(out)) != len(out):
        chk.fail(fld, f"duplicate seeds in {out}")
    return tuple(out) or (1,)


def _validate_sweep(chk: _Check, data: dict, source: str,
                    base_dir: Optional[pathlib.Path],
                    ) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    sweep = _require_map(chk, data.get("sweep"), "sweep")
    axes: List[Tuple[str, Tuple[Any, ...]]] = []
    plain = {key: value for key, value in data.items()
             if key not in ("sweep", "report")}
    for axis, values in sweep.items():
        if axis in ("seed", "seeds"):
            chk.fail(f"sweep.{axis}",
                     "seeds are an implicit axis; set top-level 'seeds' "
                     "(or --seeds) instead")
            continue
        if axis not in SWEEP_AXES:
            chk.fail(f"sweep.{axis}",
                     f"not a sweepable field; choose from {list(SWEEP_AXES)}")
            continue
        if not isinstance(values, (list, tuple)) or not values:
            chk.fail(f"sweep.{axis}",
                     f"expected a non-empty list of values, got {values!r}")
            continue
        # Every axis value must produce a valid scenario on its own; the
        # compiler re-validates full combinations, but a bad value should be
        # a load-time lint, not a compile-time surprise.  What the spec
        # gets wrong whatever the value (``chk`` has it already: every
        # other section is validated before this one) is not filed again.
        for i, value in enumerate(values):
            if value in values[:i]:
                chk.fail(f"sweep.{axis}", f"duplicate value {value!r}")
                continue
            trial = _deep_copy(plain)
            set_by_path(trial, axis, value)
            try:
                _validate(trial, source, base_dir=base_dir)
            except SpecError as exc:
                for fld, msg in exc.errors:
                    if (fld, msg) not in chk.errors:
                        chk.fail(f"sweep.{axis}[{i}]", f"{fld}: {msg}")
        axes.append((axis, tuple(values)))
    return tuple(axes)


def _validate_report(chk: _Check, data: dict,
                     sweep: Tuple[Tuple[str, Tuple[Any, ...]], ...]) -> dict:
    report = _require_map(chk, data.get("report"), "report")
    _unknown_keys(chk, report, ("compare", "objectives"), "report")
    compare = report.get("compare", "transport.protocol")
    if compare != "seed" and compare not in SWEEP_AXES:
        chk.fail("report.compare",
                 f"not a comparable axis: {compare!r}; choose from "
                 f"{list(SWEEP_AXES) + ['seed']}")
        compare = "transport.protocol"
    objectives = _require_map(chk, report.get("objectives"),
                              "report.objectives")
    norm_obj = {}
    for metric, direction in objectives.items():
        if direction not in ("min", "max"):
            chk.fail(f"report.objectives.{metric}",
                     f"direction must be 'min' or 'max', got {direction!r}")
            continue
        norm_obj[str(metric)] = direction
    return {"compare": compare, "objectives": norm_obj}


def _deep_copy(data):
    if isinstance(data, dict):
        return {k: _deep_copy(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [_deep_copy(v) for v in data]
    return data


def set_by_path(data: dict, path: str, value) -> None:
    """Set ``data["a"]["b"] = value`` for ``path == "a.b"``, creating
    intermediate mappings as needed."""
    parts = path.split(".")
    node = data
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def get_by_path(data: dict, path: str, default=None):
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _validate(data: Any, source: str,
              base_dir: Optional[pathlib.Path]) -> Scenario:
    chk = _Check(source)
    if not isinstance(data, dict):
        raise SpecError(("<root>", f"a scenario spec must be a mapping, "
                                   f"got {type(data).__name__}"), source)
    schema = data.get("schema")
    if schema != SCHEMA:
        chk.fail("schema",
                 f"expected {SCHEMA!r}, got {schema!r}"
                 + ("" if schema else " (add `schema: repro.scenarios/v1`)"))
    name = data.get("name")
    if not isinstance(name, str) or not name:
        chk.fail("name", "every scenario needs a non-empty string name")
        name = "unnamed"
    description = data.get("description", "")
    if not isinstance(description, str):
        chk.fail("description", "expected a string")
        description = ""
    tags = data.get("tags", [])
    if not isinstance(tags, (list, tuple)) or \
            any(not isinstance(t, str) for t in tags):
        chk.fail("tags", "expected a list of strings")
        tags = []
    _unknown_keys(chk, data, _TOP_KEYS, "<root>")

    topology = _validate_topology(chk, data)
    workload = _validate_workload(chk, data, topology)
    transport = _validate_transport(chk, data)
    timing = _validate_timing(chk, data, workload["kind"])
    chaos = _validate_chaos(chk, data, topology, base_dir)
    if chaos is not None and workload["kind"] == "incast":
        chk.fail("chaos", "the incast cell runs no fault plan; chaos "
                          "targets persistent and poisson workloads")
    backend = _validate_backend(chk, data, workload, chaos)
    seeds = validate_seeds(chk, data.get("seeds", [1]))
    sweep = _validate_sweep(chk, data, source, base_dir)
    report = _validate_report(chk, data, sweep)
    chk.raise_if_failed()
    return Scenario(name=name, description=description, tags=tuple(tags),
                    backend=backend, topology=topology, workload=workload,
                    transport=transport, timing=timing, chaos=chaos,
                    seeds=seeds, sweep=sweep, report=report,
                    base_dir=base_dir)
