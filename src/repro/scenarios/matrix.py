"""Running a compiled matrix: spec in, ranked report out.

This is the thin orchestration layer between the compiler and the runtime:
it owns none of the policy.  Parallelism, caching, retries, timeouts, audit
and metrics capture all come from the ambient
:class:`repro.runtime.RuntimeConfig` — ``repro matrix --parallel 8 --audit``
behaves exactly like ``repro run`` because both funnel through
:func:`repro.runtime.run_tasks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.runtime import SweepError, run_tasks
from repro.scenarios.compiler import (
    CompiledMatrix,
    cell_rows,
    compile_scenario,
)
from repro.scenarios.report import MatrixReport, build_report
from repro.scenarios.schema import Scenario, SpecError


@dataclass
class MatrixOutcome:
    """A finished matrix run: the cells, their results, and the report."""

    matrix: CompiledMatrix
    results: List  # one repro.runtime.TaskResult per cell, in cell order
    report: MatrixReport

    @property
    def ok(self) -> bool:
        """True when every cell produced a result."""
        return all(r.error is None for r in self.results)

    @property
    def failed(self) -> List:
        return [r for r in self.results if r.error is not None]

    def values(self) -> List:
        """The successful cells' values, in cell order — a partly failed
        matrix still yields its good rows; one where *every* cell failed
        has no result to shape and raises :class:`SweepError`."""
        failed = self.failed
        if failed and len(failed) == len(self.results):
            raise SweepError(failed)
        return [r.value for r in self.results if r.error is None]


def run_matrix(scenario: Scenario,
               seeds: Optional[Sequence[int]] = None,
               cell_filter: Optional[str] = None) -> MatrixOutcome:
    """Compile and execute ``scenario``, then build its report.

    ``seeds`` overrides the spec's seed list; ``cell_filter`` keeps only
    matching cells (``--filter`` semantics — filtering an entire matrix
    away is a :class:`SpecError`, since an empty run almost always means a
    typo in the filter, not an empty intent).
    """
    matrix = compile_scenario(scenario, seeds=seeds)
    if cell_filter:
        matrix = matrix.filtered(cell_filter)
        if not matrix.cells:
            raise SpecError(
                ("<filter>", f"filter {cell_filter!r} matches none of the "
                             f"{scenario.cell_count} cell(s)"),
                source=scenario.name)
    from repro.obs import trace as obs_trace
    tracer = obs_trace.emit_target()
    if tracer is not None:
        # Annotate before the sweep: the runtime recorder merges the spec
        # axes a task was lowered from (the seed only where the task takes
        # one) into its span as it finishes.
        for cell in matrix.cells:
            tracer.annotate(cell.task.label, {
                axis: value for axis, value in cell.axes
                if axis != "seed" or "seed" in cell.task.kwargs})
    task_results = run_tasks(matrix.plan())
    results = matrix.cell_results(task_results)
    if tracer is not None:
        # One cell-layer span per cell, linked to its (possibly shared)
        # scheduler task span (same interval — the cell layer re-keys the
        # timeline by science axes rather than execution order).
        for cell, result in zip(matrix.cells, results):
            interval = tracer.task_spans.get(result.index)
            t_now = tracer.now_us()
            t0 = interval["t0"] if interval else t_now
            t1 = interval["t1"] if interval else t_now
            args = dict(cell.axes, seed=cell.seed, scenario=scenario.name,
                        cached=result.cached)
            if result.error is not None:
                args["error"] = result.error
            tracer.span("cell", cell.label, track=f"cell/{cell.index}",
                        t0=t0, t1=t1, args=args,
                        link=interval["id"] if interval else None)
    rows = cell_rows(matrix, task_results)
    meta = {
        "cells": len(results),
        "cached": sum(1 for r in results if r.cached),
        "wall_s": round(sum(r.wall_s for r in task_results), 3),
    }
    spec_report = scenario.report or {}
    coords = [axis for axis, _v in matrix.cells[0].axes] if matrix.cells \
        else []
    report = build_report(
        scenario.name, rows,
        compare=spec_report.get("compare", "transport.protocol"),
        objectives=spec_report.get("objectives") or None,
        meta=meta, coords=coords)
    return MatrixOutcome(matrix=matrix, results=results, report=report)


__all__ = ["MatrixOutcome", "run_matrix"]
