"""Ungated probes: one interleaved pair each, run in the traced phase.

They put a number on the mechanisms ROADMAP items 2a, 2b and 5 want decided
by measurement — the calendar queue, single-simulation sharding, and the
observation planes — without gating on them: a ``--shards 2`` cell is a
parent plus two busy workers on two cores, and two identical runs of it
cost 6.6 and 20.5 CPU-s during sizing, so it cannot be a workload.

Each probe runs a small spec twice, baseline then variant, back to back;
its ratio is ``variant CPU / baseline CPU`` (process-tree CPU seconds of
the real CLI).  Which workload's traced run hosts which probe is fixed in
``HOSTED_BY`` so a single-workload run stays inside its time budget; a
metric of a probe that was not run reads 0.
"""

from __future__ import annotations

import pathlib
from typing import Callable, Dict, List, Tuple

#: probe -> (extra argv, extra env, ratio metric), all on ``probe_slice``
_PAIRS: Dict[str, Tuple[List[str], Dict[str, str], str]] = {
    "calendar": ([], {"REPRO_SCHED": "calendar"},
                 "sim.calendar.cpu_ratio_vs_heap"),
    "audit": (["--audit"], {}, "audit.overhead_ratio"),
    "metrics": (["--metrics"], {}, "obs.metrics_overhead_ratio"),
    "obs_trace": (["--trace", "{out}/obs_trace.jsonl"], {},
                  "obs.trace_overhead_ratio"),
    "planes": (["--audit", "--metrics", "--trace", "{out}/planes.jsonl"], {},
               "planes.all_on_overhead_ratio"),
}

HOSTED_BY: Dict[str, Tuple[str, ...]] = {
    "packet_sweep": ("calendar", "obs_trace"),
    "poisson_fct": ("shards", "metrics"),
    "warm_rerun": ("audit", "planes"),
    "fluid_grid": (),
}

#: ``run(spec, argv, env) -> (returncode, cpu_s)``: one CLI invocation of
#: ``repro matrix <spec> --parallel 1 <argv>`` on a fresh cache.
Runner = Callable[[str, List[str], Dict[str, str]], Tuple[int, float]]


def _ratio(run: Runner, spec: str, base_argv: List[str],
           argv: List[str], env: Dict[str, str]) -> float:
    rc_a, base = run(spec, base_argv, {})
    rc_b, variant = run(spec, argv, env)
    return variant / base if rc_a == 0 and rc_b == 0 and base else 0.0


def run_probe(name: str, run: Runner, out_dir: pathlib.Path) -> Dict[str, float]:
    """The metrics of probe ``name``."""
    if name == "shards":
        return _shards(run, out_dir)
    argv, env, metric = _PAIRS[name]
    argv = [a.format(out=out_dir) for a in argv]
    return {metric: _ratio(run, "probe_slice", [], argv, env)}


def _shards(run: Runner, out_dir: pathlib.Path) -> Dict[str, float]:
    """k=4 fat tree, 8 flows: ``--shards 2`` against ``--shards 1``, both
    tracing, with the window/idle counters read from the trace file the
    program already writes."""
    from repro.obs import trace as obs_trace

    serial = ["--shards", "1", "--trace", str(out_dir / "shards1.jsonl")]
    sharded = ["--shards", "2", "--trace", str(out_dir / "shards2.jsonl")]
    out = {"sim.parallel.cpu_ratio_vs_serial":
           _ratio(run, "probe_fattree", serial, sharded, {})}
    try:
        records = obs_trace.load_jsonl(out_dir / "shards2.jsonl")["records"]
        shards = obs_trace.summarize(records).get("shards") or {}
    except (OSError, ValueError):
        shards = {}
    busy = sum(s["busy_us"] for s in shards.values())
    idle = sum(s["idle_us"] for s in shards.values())
    out["sim.parallel.windows"] = max(
        (s["windows"] for s in shards.values()), default=0)
    out["sim.parallel.shipped_packets"] = sum(
        s["shipped"] for s in shards.values())
    out["sim.parallel.idle_share"] = idle / (busy + idle) if busy + idle else 0.0
    return out
