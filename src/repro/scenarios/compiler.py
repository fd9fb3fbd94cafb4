"""Lowering: ``Scenario`` → cross-product of picklable runtime TaskSpecs.

The compiler expands a scenario's ``sweep`` axes (declaration order, first
axis outermost) with ``seeds`` as the implicit innermost axis, re-validates
every full combination (two individually-valid axis values can still
conflict — e.g. a swept ``workload.n_flows`` exceeding a swept fat-tree
arity), and lowers each cell to a :class:`~repro.runtime.TaskSpec` over
:func:`repro.scenarios.cells.run_persistent` or
:func:`~repro.scenarios.cells.run_poisson`.

Everything in a compiled kwargs dict is plain data — chaos sections resolve
to ``FaultPlan.to_dict()`` dicts *at compile time* (named scenarios seeded
with the cell seed, plan files read once and embedded) — so
``TaskSpec.identity`` is a pure function of the spec text.  That is the
determinism contract the cache relies on: compiling the same spec twice,
in different processes, on different days, yields byte-identical task
fingerprints and therefore warm cache hits.
"""

from __future__ import annotations

import itertools
import pathlib
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime import SweepPlan, TaskSpec
from repro.scenarios import cells
from repro.scenarios.schema import (
    Scenario, SpecError, _Check, get_by_path, validate_seeds)


class Cell:
    """One point of the expanded matrix: a report row's coordinates plus
    the task that computes it (cells may share one: DESIGN §12).

    ``axes`` is the ordered ``(axis, value)`` tuple that locates the cell in
    the cross-product (sweep axes first, then ``("seed", s)``); ``label`` is
    the human-readable form used by ``--filter`` and the report.
    """

    def __init__(self, index: int, label: str,
                 axes: Tuple[Tuple[str, Any], ...], seed: int,
                 task: TaskSpec):
        self.index = index
        self.label = label
        self.axes = axes
        self.seed = seed
        self.task = task

    @property
    def fingerprint(self) -> str:
        """The task's stable identity (the cache key's plaintext)."""
        return self.task.identity


class CompiledMatrix:
    """A scenario lowered to an ordered list of cells."""

    def __init__(self, scenario: Scenario, cells: Tuple[Cell, ...]):
        self.scenario = scenario
        self.cells = cells

    def __len__(self) -> int:
        return len(self.cells)

    def slots(self) -> List[int]:
        """Each cell's position in :meth:`plan`: cells holding the same
        task *object* share one — the compiler shares by construction, no
        task renderings are compared."""
        seen: Dict[int, int] = {}
        return [seen.setdefault(id(c.task), len(seen)) for c in self.cells]

    def plan(self, name: Optional[str] = None) -> SweepPlan:
        """The runtime sweep plan: each distinct task once, in the order
        of its first cell (== spec order)."""
        tasks = {id(c.task): c.task for c in self.cells}
        return SweepPlan(name or self.scenario.name, tuple(tasks.values()))

    def cell_results(self, results) -> list:
        """``run_tasks(self.plan())`` output fanned out to one result per
        cell: the cell's label, and the cell's seed in a value that records
        one (a shared task ran without).  ``index`` stays the task's."""
        out = []
        for cell, slot in zip(self.cells, self.slots()):
            value = results[slot].value
            if isinstance(value, dict) and "seed" in value:
                value = {**value, "seed": cell.seed}
            out.append(results[slot].replace(label=cell.label, value=value))
        return out

    def filtered(self, expr: str) -> "CompiledMatrix":
        """Cells whose label matches ``expr`` (see :func:`match_cell`)."""
        kept = tuple(c for c in self.cells if match_cell(c, expr))
        return CompiledMatrix(self.scenario, kept)


def match_cell(cell: Cell, expr: str) -> bool:
    """``--filter`` semantics: space-separated terms, all must match.

    A term of the form ``axis=value`` matches that coordinate exactly
    (``protocol=dctcp``, ``seed=2``; the axis may be the full dotted path or
    its last segment).  Any other term is a substring match on the label.
    """
    for term in expr.split():
        if "=" in term:
            axis, _, want = term.partition("=")
            hit = False
            for path, value in cell.axes:
                if path == axis or path.rsplit(".", 1)[-1] == axis:
                    hit = str(value) == want
                    break
            if not hit:
                return False
        elif term not in cell.label:
            return False
    return True


def _short(axis: str) -> str:
    return axis.rsplit(".", 1)[-1]


def _lower_chaos(name: str, chaos: Dict[str, Any], seed: int,
                 base_dir: Optional[pathlib.Path]) -> dict:
    """Resolve a validated chaos section to a plain ``FaultPlan`` dict."""
    from repro.chaos.plan import FaultPlan, event_from_dict
    from repro.chaos.scenarios import plan_for

    if "scenario" in chaos:
        # Named fabric scenario: stochastic faults draw from the cell seed,
        # so sweeping seeds varies the fault realization with the traffic.
        return plan_for(chaos["scenario"], seed=seed,
                        fault_ps=chaos["fault_ps"],
                        duration_ps=chaos["duration_ps"],
                        reconverge_delay_ps=chaos["reconverge_delay_ps"],
                        ).to_dict()
    if "plan" in chaos:
        path = pathlib.Path(chaos["plan"])
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        plan = FaultPlan.load(path)
        if "seed" in chaos:
            plan = plan.with_seed(chaos["seed"])
        return plan.to_dict()
    events = tuple(event_from_dict(ev) for ev in chaos["events"])
    return FaultPlan(name=f"{name}-inline", seed=chaos.get("seed", seed),
                     reconverge_delay_ps=chaos["reconverge_delay_ps"],
                     events=events).to_dict()


def _lower_cell(scenario: Scenario, seed: int) -> TaskSpec:
    """One fully-resolved scenario + seed → a picklable TaskSpec.  A cell
    function whose row is the same for every seed (today exactly ``backend:
    fluid``) is not passed one: its seed replicas are one task."""
    topo, wl, tr = scenario.topology, scenario.workload, scenario.transport
    timing = scenario.timing
    chaos_plan = (None if scenario.chaos is None else
                  _lower_chaos(scenario.name, scenario.chaos, seed,
                               scenario.base_dir))
    if wl["kind"] == "persistent":
        kwargs: Dict[str, Any] = {
            "protocol": tr["protocol"],
            "n_flows": wl["n_flows"],
            "topology": topo["kind"],
            "rate_bps": topo["rate_bps"],
            "prop_delay_ps": topo["prop_delay_ps"],
            "warmup_ps": timing["warmup_ps"],
            "measure_ps": timing["measure_ps"],
            "bin_ps": timing["bin_ps"],
            "seed": seed,
            "ep_profile": tr["ep_profile"],
        }
        if topo["params"]:
            kwargs["topo_params"] = dict(topo["params"])
        if scenario.backend == "fluid":
            # The packet cell's kwargs minus the seed (no RNG reaches
            # ``FluidNetwork``), on a different cell function: packet
            # fingerprints are untouched by the backend field's existence.
            # Validation guarantees no chaos plan reaches a fluid cell.
            from repro.sim.fluid import cells as fluid_cells
            del kwargs["seed"]
            return TaskSpec(fluid_cells.run_fluid, kwargs)
        if chaos_plan is not None:
            kwargs["chaos_plan"] = chaos_plan
        return TaskSpec(cells.run_persistent, kwargs)
    kwargs = {
        "protocol": tr["protocol"],
        "n_flows": wl["n_flows"],
        "distribution": wl["distribution"],
        "load": wl["load"],
        "rate_bps": topo["rate_bps"],
        "size_cap_bytes": wl["size_cap_bytes"],
        "drain_ps": timing["drain_ps"],
        "seed": seed,
        "ep_profile": tr["ep_profile"],
    }
    if topo["params"].get("core_rate_bps") is not None:
        kwargs["core_rate_bps"] = topo["params"]["core_rate_bps"]
    if chaos_plan is not None:
        kwargs["chaos_plan"] = chaos_plan
    return TaskSpec(cells.run_poisson, kwargs)


def _check_chaos_window(scenario: Scenario, where: str,
                        errors: List[Tuple[str, str]]) -> None:
    """Named fabric faults must land inside the measured horizon."""
    chaos = scenario.chaos
    if not chaos or "scenario" not in chaos:
        return
    warmup = scenario.timing["warmup_ps"]
    horizon = warmup + scenario.timing["measure_ps"]
    if chaos["fault_ps"] <= warmup:
        errors.append((f"{where}chaos.fault_ps",
                       f"fault at {chaos['fault_ps']} ps starts before "
                       f"warmup ends ({warmup} ps); recovery would be "
                       f"measured against a cold fabric"))
    if chaos["fault_ps"] + chaos["duration_ps"] >= horizon:
        errors.append((f"{where}chaos.fault_ps",
                       f"fault window [{chaos['fault_ps']}, "
                       f"{chaos['fault_ps'] + chaos['duration_ps']}] ps "
                       f"must end inside the horizon ({horizon} ps); "
                       f"raise timing.measure_ps"))


def compile_scenario(scenario: Scenario,
                     seeds: Optional[Sequence[int]] = None) -> CompiledMatrix:
    """Expand sweep axes × seeds into an ordered, validated cell list.

    ``seeds`` overrides the spec's seed list (the ``--seeds`` flag) and
    passes the same check, its errors addressed ``--seeds``.  Raises
    :class:`SpecError` if any full axis combination is invalid or a named
    chaos fault misses the measurement window.
    """
    seed_list = scenario.seeds
    if seeds:
        chk = _Check(scenario.name)
        seed_list = validate_seeds(chk, list(seeds), "--seeds")
        chk.raise_if_failed()
    axes = scenario.sweep
    base = scenario.to_dict()
    base.pop("sweep", None)
    errors: List[Tuple[str, str]] = []
    variants: List[Tuple[Tuple[Tuple[str, Any], ...], Scenario]] = []
    if axes:
        names = [axis for axis, _values in axes]
        for combo in itertools.product(*(values for _axis, values in axes)):
            coords = tuple(zip(names, combo))
            where = ",".join(f"{_short(a)}={v}" for a, v in coords)
            trial = _deep(base)
            for axis, value in coords:
                _set(trial, axis, value)
            try:
                variant = Scenario.from_dict(trial, source=scenario.name,
                                             base_dir=scenario.base_dir)
            except SpecError as exc:
                errors.extend((f"[{where}] {fld}", msg)
                              for fld, msg in exc.errors)
                continue
            _check_chaos_window(variant, f"[{where}] ", errors)
            variants.append((coords, variant))
    else:
        _check_chaos_window(scenario, "", errors)
        variants.append(((), scenario))
    if errors:
        raise SpecError(errors, source=scenario.name)

    out: List[Cell] = []
    for coords, variant in variants:
        parts = [f"{_short(a)}={v}" for a, v in coords]
        task = None
        for seed in seed_list:
            label = f"{scenario.name}[{' '.join(parts + [f'seed={seed}'])}]"
            # Tasks are labelled by their coordinates so progress, telemetry
            # and trace spans name them by science axes rather than by the
            # cell function.  Labels are display-only: ``TaskSpec.identity``
            # (and thus cache keys) ignore them.  A task lowered without a
            # seed is lowered once, labelled without the ``seed=`` part,
            # and held by every seed replica of the cell.
            if task is None or "seed" in task.kwargs:
                task = _lower_cell(variant, seed)
                task = task.replace(
                    label=label if "seed" in task.kwargs
                    else f"{scenario.name}[{' '.join(parts)}]")
            out.append(Cell(index=len(out), label=label,
                            axes=coords + (("seed", seed),), seed=seed,
                            task=task))
    return CompiledMatrix(scenario, tuple(out))


def _deep(data):
    if isinstance(data, dict):
        return {k: _deep(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_deep(v) for v in data]
    return data


def _set(data: dict, path: str, value) -> None:
    from repro.scenarios.schema import set_by_path
    set_by_path(data, path, value)


def cell_rows(matrix: CompiledMatrix, results) -> List[dict]:
    """Join runtime results back onto cells as flat report rows.

    ``results`` is the ordered :func:`repro.runtime.run_tasks` output for
    ``matrix.plan()``; a shared task's shows on each of its cells' rows
    (coordinates, ``seed`` included, are the cell's).  Failed cells keep
    their coordinates with an ``error`` string instead of metrics.
    """
    rows: List[dict] = []
    for cell, slot in zip(matrix.cells, matrix.slots()):
        res = results[slot]
        row: Dict[str, Any] = {"cell": cell.label}
        for axis, value in cell.axes:
            row[_short(axis)] = value
        if res.error is not None:
            row["error"] = str(res.error)
        elif isinstance(res.value, dict):
            for key, value in res.value.items():
                if key not in row:
                    row[key] = value
        else:
            row["value"] = res.value
        row["cached"] = res.cached
        row["wall_s"] = res.wall_s
        rows.append(row)
    return rows


__all__ = ["Cell", "CompiledMatrix", "compile_scenario", "cell_rows",
           "match_cell", "get_by_path"]
