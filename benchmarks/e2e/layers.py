"""Per-layer metrics from the traced children's span documents.

One *repeat* of a workload is one or more CLI invocations; each traced
invocation leaves a document (``traced_child.py``).  ``layer_metrics`` folds
the documents of one repeat into the per-layer names of ``catalog.py``.
Every ``*_cpu_s`` here is summed over the repeat's invocations — comparable
with the workload's ``cpu_s`` — except ``interp.startup_cpu_s``,
``cli.import_cpu_s`` and (filled in by the driver from the plain arm)
``interp.exit_cpu_s``, which are per invocation.  ``scale`` is the
calibration factor of the traced run.
"""

from __future__ import annotations

from typing import Dict, List

import spans as span_math


def _profile_by_subsystem(docs: List[dict]) -> Dict[str, List[float]]:
    """``subsystem -> [events fired, estimated seconds]`` from the
    ``repro.perf.profile`` reports (exact counts, sampled times)."""
    out: Dict[str, List[float]] = {}
    for doc in docs:
        for module, _qual, n, secs, m in doc["profile"]["callbacks"]:
            parts = module.split(".")
            bucket = parts[1] if parts[0] == "repro" and len(parts) > 1 \
                else parts[0]
            cell = out.setdefault(bucket, [0, 0.0])
            cell[0] += n
            if m:
                cell[1] += secs * n / m
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(docs: List[dict], scale: float) -> Dict[str, float]:
    spans = [s for doc in docs for s in doc["spans"]]
    counts: Dict[str, float] = {}
    for doc in docs:
        for name, n in doc["counts"].items():
            counts[name] = counts.get(name, 0) + n
    n_inv = len(docs)

    def cpu(name: str, under=None) -> float:
        return span_math.total(spans, name, under=under) * scale

    m: Dict[str, float] = {}
    m["interp.startup_cpu_s"] = scale * sum(
        d["startup_cpu_s"] for d in docs) / n_inv
    m["cli.import_cpu_s"] = scale * sum(d["import_cpu_s"] for d in docs) / n_inv
    m["cli.import_modules"] = docs[0]["import_modules"]
    # The lazy imports ``cli.main`` would have paid for itself were forced
    # early by the wrappers; they are CLI self time all the same.
    m["cli.self_cpu_s"] = scale * (
        span_math.self_total(spans, "cli.main")
        + sum(d["lazy_import_cpu_s"] for d in docs))

    m["scenarios.loader.load_cpu_s"] = cpu("scenarios.loader.load")
    m["scenarios.compiler.compile_cpu_s"] = cpu("scenarios.compiler.compile")
    m["scenarios.compiler.cells"] = counts.get("scenarios.compiler.cells", 0)

    hits = counts.get("runtime.cache.hits", 0)
    misses = counts.get("runtime.cache.misses", 0)
    m["runtime.cache.key_cpu_s"] = cpu("runtime.cache.key")
    m["runtime.cache.get_cpu_s"] = cpu("runtime.cache.get")
    m["runtime.cache.put_cpu_s"] = cpu("runtime.cache.put")
    m["runtime.cache.hits"] = hits
    m["runtime.cache.misses"] = misses
    m["runtime.cache.hit_ratio"] = _ratio(hits, hits + misses)
    m["runtime.cache.bytes_written"] = counts.get(
        "runtime.cache.bytes_written", 0)

    tasks = counts.get("runtime.scheduler.tasks", 0)
    run_tasks = cpu("runtime.run_tasks")
    cell_names = ("scenarios.cells.persistent", "scenarios.cells.poisson",
                  "sim.fluid.run_fluid")
    in_cells = sum(cpu(name, under="runtime.run_tasks") for name in cell_names)
    m["runtime.scheduler.run_tasks_cpu_s"] = run_tasks
    m["runtime.scheduler.self_cpu_s"] = run_tasks - in_cells
    m["runtime.scheduler.overhead_per_task_ms"] = 1e3 * _ratio(
        run_tasks - in_cells, tasks)
    m["runtime.scheduler.tasks"] = tasks
    m["runtime.scheduler.failed"] = counts.get("runtime.scheduler.failed", 0)
    m["runtime.scheduler.retries"] = counts.get("runtime.scheduler.retries", 0)
    m["runtime.scheduler.pickle_bytes_per_task"] = _ratio(
        counts.get("runtime.scheduler.pickle_bytes", 0), tasks)

    for kind in ("persistent", "poisson"):
        cell = cpu(f"scenarios.cells.{kind}")
        m[f"scenarios.cells.{kind}_cpu_s"] = cell
        m[f"scenarios.cells.{kind}_self_cpu_s"] = cell - cpu(
            "sim.engine.run", under=f"scenarios.cells.{kind}")

    events = sum(d["profile"]["events"] for d in docs)
    reaped = sum(d["profile"]["reaped"] for d in docs)
    engine = cpu("sim.engine.run")
    subsystems = _profile_by_subsystem(docs)
    callback_s = sum(secs for _n, secs in subsystems.values())
    engine_wall = span_math.total(spans, "sim.engine.run", clock="wall")
    m["sim.engine.run_cpu_s"] = engine
    m["sim.engine.events"] = events
    m["sim.engine.reaped"] = reaped
    m["sim.engine.reap_ratio"] = _ratio(reaped, events + reaped)
    m["sim.engine.events_per_cpu_s"] = _ratio(events, engine)
    m["sim.engine.loop_share"] = (
        1.0 - callback_s / engine_wall if engine_wall else 0.0)
    for bucket in ("net", "core", "transport"):
        n, secs = subsystems.get(bucket, (0, 0.0))
        m[f"{bucket}.events"] = n
        m[f"{bucket}.cpu_share"] = _ratio(secs, callback_s)

    fluid = cpu("sim.fluid.run_fluid")
    fluid_cells = sum(1 for s in spans if s["name"] == "sim.fluid.run_fluid")
    m["sim.fluid.run_fluid_cpu_s"] = fluid
    m["sim.fluid.cell_ms"] = 1e3 * _ratio(fluid, fluid_cells)
    m["sim.fluid.share"] = _ratio(fluid, run_tasks)

    m["scenarios.report.build_cpu_s"] = cpu("scenarios.report.build")
    m["scenarios.report.write_cpu_s"] = cpu("scenarios.report.write")
    m["scenarios.report.bytes"] = counts.get("scenarios.report.bytes", 0)
    return m


def accounted_cpu_s(docs: List[dict], scale: float) -> float:
    """Start-up + import + root span + exit, summed over the invocations:
    what the layers account for of a repeat's ``cpu_s``."""
    spans = [s for doc in docs for s in doc["spans"]]
    return scale * (sum(d["startup_cpu_s"] + d["import_cpu_s"]
                        + d["exit_cpu_s"] for d in docs)
                    + span_math.total(spans, "cli.main"))
