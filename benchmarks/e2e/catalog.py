"""The metric catalogue: every name the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names (a self-test
keeps the two in step).  ``kind`` says how a number may be compared across
two runs of the same tree:

* ``time``  — calibrated CPU seconds (or a value derived from them); noisy.
* ``size``  — bytes or megabytes that repeat to within a few parts in a
  thousand (a resident set; a report whose ``wall_s`` digits vary).
* ``ratio`` — a quotient of two measured times or counts; noisy unless both
  terms are counts.
* ``count`` — made by the program or read off its outputs; repeats exactly
  for a given seed, so two runs must agree to the last digit.

``failed_share`` is the fourth end-to-end metric of the design.  It is
expected to be exactly 0, and the benchmark contract both forbids
end-to-end metrics that read 0 and carries failures in its own
``attempted``/``failed`` result fields — so it is reported there, printed
by name in the human-readable table, and listed per layer as
``driver.failed_share``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    kind: str
    bound: float = 0.0


END_TO_END: List[Metric] = [
    Metric("cpu_s", "s", "lower", "time", 0.25),
    Metric("setup_s", "s", "lower", "time", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "size", 0.10),
]

PER_LAYER: List[Metric] = [
    # interpreter + CLI front end (per invocation)
    Metric("interp.startup_cpu_s", "s", "lower", "time"),
    Metric("cli.import_cpu_s", "s", "lower", "time"),
    Metric("cli.import_modules", "count", "lower", "count"),
    Metric("cli.self_cpu_s", "s", "lower", "time"),
    Metric("interp.exit_cpu_s", "s", "lower", "time"),
    # spec load + compile
    Metric("scenarios.loader.load_cpu_s", "s", "lower", "time"),
    Metric("scenarios.compiler.compile_cpu_s", "s", "lower", "time"),
    Metric("scenarios.compiler.cells", "count", "higher", "count"),
    # result cache
    Metric("runtime.cache.key_cpu_s", "s", "lower", "time"),
    Metric("runtime.cache.get_cpu_s", "s", "lower", "time"),
    Metric("runtime.cache.put_cpu_s", "s", "lower", "time"),
    Metric("runtime.cache.hits", "count", "higher", "count"),
    Metric("runtime.cache.misses", "count", "lower", "count"),
    Metric("runtime.cache.hit_ratio", "ratio", "higher", "count"),
    Metric("runtime.cache.bytes_written", "bytes", "lower", "count"),
    # scheduler / pool dispatch
    Metric("runtime.scheduler.run_tasks_cpu_s", "s", "lower", "time"),
    Metric("runtime.scheduler.self_cpu_s", "s", "lower", "time"),
    Metric("runtime.scheduler.overhead_per_task_ms", "ms", "lower", "time"),
    Metric("runtime.scheduler.tasks", "count", "higher", "count"),
    Metric("runtime.scheduler.failed", "count", "lower", "count"),
    Metric("runtime.scheduler.retries", "count", "lower", "count"),
    Metric("runtime.scheduler.pickle_bytes_per_task", "bytes", "lower",
           "count"),
    Metric("runtime.scheduler.pool_cpu_ratio", "ratio", "lower", "ratio"),
    # cell functions
    Metric("scenarios.cells.persistent_cpu_s", "s", "lower", "time"),
    Metric("scenarios.cells.persistent_self_cpu_s", "s", "lower", "time"),
    Metric("scenarios.cells.poisson_cpu_s", "s", "lower", "time"),
    Metric("scenarios.cells.poisson_self_cpu_s", "s", "lower", "time"),
    # packet engine
    Metric("sim.engine.run_cpu_s", "s", "lower", "time"),
    Metric("sim.engine.events", "count", "lower", "count"),
    Metric("sim.engine.reaped", "count", "lower", "count"),
    Metric("sim.engine.reap_ratio", "ratio", "lower", "count"),
    Metric("sim.engine.events_per_cpu_s", "1/s", "higher", "time"),
    Metric("sim.engine.loop_share", "ratio", "lower", "ratio"),
    Metric("net.events", "count", "lower", "count"),
    Metric("net.cpu_share", "ratio", "lower", "ratio"),
    Metric("core.events", "count", "lower", "count"),
    Metric("core.cpu_share", "ratio", "lower", "ratio"),
    Metric("transport.events", "count", "lower", "count"),
    Metric("transport.cpu_share", "ratio", "lower", "ratio"),
    # fluid backend
    Metric("sim.fluid.run_fluid_cpu_s", "s", "lower", "time"),
    Metric("sim.fluid.cell_ms", "ms", "lower", "time"),
    Metric("sim.fluid.share", "ratio", "lower", "ratio"),
    # report
    Metric("scenarios.report.build_cpu_s", "s", "lower", "time"),
    Metric("scenarios.report.write_cpu_s", "s", "lower", "time"),
    Metric("scenarios.report.bytes", "bytes", "lower", "size"),
    # the driver's own view of the measurement
    Metric("driver.wall_s", "s", "lower", "time"),
    Metric("driver.cpu_s_iqr", "ratio", "lower", "ratio"),
    Metric("driver.calib_cpu_s", "s", "lower", "time"),
    Metric("driver.calib_spread", "ratio", "lower", "ratio"),
    Metric("driver.rounds", "count", "higher", "count"),
    Metric("driver.trace_overhead_ratio", "ratio", "lower", "ratio"),
    Metric("driver.accounted_ratio", "ratio", "higher", "ratio"),
    Metric("driver.rows_changed", "count", "lower", "count"),
    Metric("driver.failed_share", "ratio", "lower", "count"),
    # ungated probes (0 on a workload whose traced run does not host them)
    Metric("sim.parallel.cpu_ratio_vs_serial", "ratio", "lower", "ratio"),
    Metric("sim.parallel.windows", "count", "lower", "count"),
    Metric("sim.parallel.shipped_packets", "count", "lower", "count"),
    Metric("sim.parallel.idle_share", "ratio", "lower", "ratio"),
    Metric("sim.calendar.cpu_ratio_vs_heap", "ratio", "lower", "ratio"),
    Metric("audit.overhead_ratio", "ratio", "lower", "ratio"),
    Metric("obs.metrics_overhead_ratio", "ratio", "lower", "ratio"),
    Metric("obs.trace_overhead_ratio", "ratio", "lower", "ratio"),
    Metric("planes.all_on_overhead_ratio", "ratio", "lower", "ratio"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}

#: Per-layer metrics that must be identical in two runs of one tree and seed.
#: ``driver.rounds`` is a count of the measurement, not of the program: a
#: time-bounded run makes as many rounds as fit.
COUNT_METRICS = [m.name for m in PER_LAYER
                 if m.kind == "count" and m.name != "driver.rounds"]
