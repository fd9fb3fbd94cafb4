"""``repro.runtime`` — parallel, cached, fault-tolerant experiment execution.

Every paper figure/table is a sweep over a parameter grid (protocols × sweep
points × seeds).  This subsystem decomposes such sweeps into picklable
:class:`TaskSpec` units, executes them on a process pool (or serially) with
per-task retries and timeouts, memoises each task's result in a
content-addressed on-disk cache keyed by ``(function, kwargs incl. seed,
code fingerprint)``, and reports progress to the run journal
(:mod:`repro.resilience.journal`, when one is active) plus a live stderr
ticker.

Policy (worker count, cache on/off, retry budget) comes from
the active :class:`RuntimeConfig` — set by CLI flags (``python -m repro run
fig15 --parallel 4``), environment variables (``REPRO_PARALLEL=4 pytest
benchmarks/``), or :func:`configure`/:func:`using` in code.  Experiments
stay policy-free: they call :func:`repro.scenarios.run_matrix` (or,
for the remaining hand-written sweeps, :func:`repro.experiments.runner.run_sweep`).

Determinism is the invariant everything else is built around: each task
seeds its own ``Simulator``, so serial, parallel, and cached executions of
the same sweep produce bit-identical rows (asserted in
``tests/test_runtime.py``).
"""

from repro.runtime.cache import ResultCache, code_fingerprint
from repro.runtime.config import (
    RuntimeConfig,
    configure,
    default_cache_dir,
    get_config,
    reset,
    using,
)
from repro.runtime.scheduler import SweepError, TaskResult, run_tasks
from repro.runtime.task import SweepPlan, TaskSpec, stable_repr, task_id
from repro.runtime.telemetry import Telemetry

__all__ = [
    "ResultCache",
    "RuntimeConfig",
    "SweepError",
    "SweepPlan",
    "TaskResult",
    "TaskSpec",
    "Telemetry",
    "code_fingerprint",
    "configure",
    "default_cache_dir",
    "get_config",
    "reset",
    "run_tasks",
    "stable_repr",
    "task_id",
    "using",
]
