"""Simulator performance: event-loop and packet-forwarding throughput.

Not a paper figure — these benches track the substrate's own speed so
regressions in the hot path (event heap, port scheduler, ExpressPass
feedback) show up in CI.  Unlike the figure benches these run multiple
rounds for real statistics.

Besides the pytest-benchmark entry points, this module is a standalone
runner for the CI perf-smoke job::

    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
        --output BENCH_simcore.json --check benchmarks/BENCH_simcore.json

It measures events/sec for the pure event loop (sparse chain and dense
many-timer shapes), port transmissions/sec for a serial ExpressPass
dumbbell and a small sweep on two workers, fig15-style cell throughput on
the packet vs fluid backends, and a fat-tree persistent cell (the one
multi-hop packet row), then writes them to a JSON report alongside the
committed pre-PR baseline.  ``--check`` exits non-zero if any
metric falls below its absolute floor, regresses more than 20 % against
the committed report's numbers, or is in the committed report but missing
from the run.

The two packet rows count *port transmissions* (Σ data + credit packets
put on a wire), not events: how many events the engine spends per packet
is an implementation choice — lazy transmit completion (DESIGN.md §8) cut
the dumbbell's from 60 158 to 40 446 while the run got faster, which
events/s reads as a regression — while the packets a given simulation
transmits are fixed by the protocol.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from time import perf_counter

from repro.core import ExpressPassFlow, ExpressPassParams
from repro.sim.engine import Simulator
from repro.sim.units import GBPS, MS, US
from repro.topology import LinkSpec, dumbbell


def test_event_loop_throughput(benchmark):
    """Pure scheduler: a self-rescheduling timer chain."""

    def run():
        sim = Simulator(seed=0)
        state = {"n": 0}

        def tick():
            state["n"] += 1
            if state["n"] < 100_000:
                sim.schedule(1000, tick)

        sim.schedule(0, tick)
        sim.run()
        return state["n"]

    assert benchmark(run) == 100_000


def test_expresspass_packet_rate(benchmark):
    """End-to-end protocol throughput: a 2-flow ExpressPass dumbbell."""
    transmissions = benchmark(_dumbbell_transmissions)
    assert transmissions > 20_000  # ~5 ms of 10 G credit-scheduled traffic


# --- standalone runner (CI perf smoke) ---------------------------------------

#: Events/sec measured at the pre-optimisation seed (commit cba716c) on the
#: reference container; the committed BENCH_simcore.json carries it so the
#: speedup of the repro.perf work stays visible.  (The dumbbell's pre-PR
#: figure was events/s of a run that spent 1.5x today's events per packet;
#: it has no counterpart in transmissions/s and is gone.)
PRE_PR_BASELINE = {
    "event_loop": 834_090,
}

#: What one unit of each row's numerator is.
UNITS = {
    "event_loop": "events",
    "event_loop_dense_heap": "events",
    "expresspass_dumbbell": "transmissions",
    "sweep_parallel2": "transmissions",
    "fig15_cells_packet": "cells",
    "fig15_cells_fluid": "cells",
    "fattree_cell_serial": "cells",
}

#: Absolute floors (per second, in each row's unit): ~4-5x below the
#: optimised reference numbers, so only a catastrophic hot-path regression —
#: not a slow CI machine — trips them.
FLOORS = {
    "event_loop": 450_000,
    "event_loop_dense_heap": 125_000,
    "expresspass_dumbbell": 42_000,
    "sweep_parallel2": 38_000,
    "fig15_cells_packet": 1.5,
    "fig15_cells_fluid": 480,
    "fattree_cell_serial": 0.37,
}

#: ``--check`` fails when a metric drops below this fraction of the
#: committed report's number.
REGRESSION_TOLERANCE = 0.8


def _bench_event_loop() -> tuple:
    """(events, seconds) for the 100k self-rescheduling timer chain.

    A single pending event at all times: the heap's best case.
    """
    sim = Simulator(seed=0)
    state = {"n": 0}

    def tick():
        state["n"] += 1
        if state["n"] < 100_000:
            sim.schedule(1000, tick)

    sim.schedule(0, tick)
    t0 = perf_counter()
    sim.run()
    return state["n"], perf_counter() - t0


#: Dense event-loop population: enough concurrent timers that the heap's
#: O(log n) sift (and its cache behaviour) dominates — ExpressPass at
#: fabric scale keeps a pending credit event per flow.
_DENSE_TIMERS = 524_288
_DENSE_EVENTS = 400_000


def _bench_dense_event_loop() -> tuple:
    """(events, seconds) with ``_DENSE_TIMERS`` concurrent periodic timers.

    The ticks do nothing but reschedule — the queue operations are the
    thing under test — and only the run loop is timed; the initial
    scheduling burst is setup.  The half-million live closures and entry
    tuples are frozen out of the collector for the timed region: cyclic-GC
    traversals otherwise dwarf the queue operations being measured.
    """
    import gc

    sim = Simulator(seed=0)

    def mk(period):
        def tick():
            sim.schedule(period, tick)
        return tick

    for i in range(_DENSE_TIMERS):
        sim.schedule(i * 7 + 1, mk(999_983 + 13 * (i % 29)))
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    processed = sim.run(max_events=_DENSE_EVENTS)
    elapsed = perf_counter() - t0
    gc.unfreeze()
    return processed, elapsed


def _dumbbell_transmissions(seed: int = 1, n_pairs: int = 2,
                            run_ms: int = 5) -> int:
    """Run the 2-flow ExpressPass dumbbell; returns port transmissions."""
    sim = Simulator(seed=seed)
    topo = dumbbell(sim, n_pairs=n_pairs,
                    bottleneck=LinkSpec(rate_bps=10 * GBPS,
                                        prop_delay_ps=4 * US))
    params = ExpressPassParams(rtt_hint_ps=40 * US)
    flows = [ExpressPassFlow(s, r, None, params=params)
             for s, r in zip(topo.senders, topo.receivers)]
    sim.run(until=run_ms * MS)
    for f in flows:
        f.stop()
    return sum(p.stats.data_pkts_sent + p.stats.credit_pkts_sent
               for p in topo.net.ports)


def _bench_dumbbell() -> tuple:
    t0 = perf_counter()
    transmissions = _dumbbell_transmissions()
    return transmissions, perf_counter() - t0


def _bench_sweep_parallel2() -> tuple:
    """(transmissions, seconds) for a 4-task dumbbell sweep on 2 workers.

    Exercises the same hot path under ``repro.runtime`` process-pool
    dispatch (cache off, so the simulations really run).  The aggregate
    rate is total transmissions over sweep wall time.
    """
    from repro import runtime
    from repro.runtime.task import TaskSpec

    specs = [TaskSpec(_dumbbell_transmissions,
                      {"seed": seed, "run_ms": 3},
                      label=f"dumbbell seed={seed}")
             for seed in range(4)]
    t0 = perf_counter()
    with runtime.using(parallel=2, cache_enabled=False, progress=False):
        results = runtime.run_tasks(specs, name="bench_sweep")
    elapsed = perf_counter() - t0
    transmissions = sum(r.value for r in results if r.ok)
    if not transmissions:
        raise RuntimeError(
            f"sweep transmitted nothing: {[r.error for r in results]}")
    return transmissions, elapsed


#: fig15-style grid both backends run for the cells/sec comparison.
_FIG15_GRID = (("expresspass", 4), ("expresspass", 16), ("dctcp", 4))


def _bench_fig15_cells(backend: str) -> tuple:
    """(cells, seconds) for a small fig15-style persistent-flow grid.

    The fluid backend's reason to exist is scanning grids like this far
    faster than packet level; the committed report pins the speedup.
    """
    from repro.scenarios.cells import run_persistent
    from repro.sim.fluid.cells import run_fluid

    fn = run_fluid if backend == "fluid" else run_persistent
    t0 = perf_counter()
    for protocol, n_flows in _FIG15_GRID:
        fn(protocol=protocol, n_flows=n_flows,
           warmup_ps=2 * MS, measure_ps=2 * MS)
    return len(_FIG15_GRID), perf_counter() - t0


def _bench_fattree_cell() -> tuple:
    """(cells, seconds) for one k=4 fat-tree persistent cell: the only row
    whose packets cross more than one switch."""
    from repro.scenarios.cells import run_persistent

    t0 = perf_counter()
    run_persistent(protocol="expresspass", n_flows=4, topology="fat_tree",
                   topo_params={"k": 4}, warmup_ps=2 * MS, measure_ps=4 * MS)
    return 1, perf_counter() - t0


SCENARIOS = {
    "event_loop": _bench_event_loop,
    "event_loop_dense_heap": _bench_dense_event_loop,
    "expresspass_dumbbell": _bench_dumbbell,
    "sweep_parallel2": _bench_sweep_parallel2,
    "fig15_cells_packet": lambda: _bench_fig15_cells("packet"),
    "fig15_cells_fluid": lambda: _bench_fig15_cells("fluid"),
    "fattree_cell_serial": _bench_fattree_cell,
}


def measure(rounds: int = 3) -> dict:
    """Best-of-``rounds`` rate (``UNITS[name]`` per second) per scenario.

    Rounds are the outer loop: each scenario's attempts are spread over the
    whole session, so a noisy spell on a shared machine costs every row one
    attempt instead of costing one row all of its attempts.
    """
    best = dict.fromkeys(SCENARIOS, 0.0)
    for _ in range(max(1, rounds)):
        for name, fn in SCENARIOS.items():
            work, secs = fn()
            best[name] = max(best[name], work / secs)
    current = {}
    for name, rate in best.items():
        # Cell-throughput rows can be fractional; keep their precision.
        current[name] = round(rate) if rate >= 1000 else round(rate, 2)
        print(f"  {name:<26s} {current[name]:>12,} {UNITS[name]}/s",
              file=sys.stderr)
    return current


def check(current: dict, committed: dict) -> list:
    """Return a list of failure strings (empty = pass)."""
    failures = []
    for name, rate in current.items():
        unit = UNITS.get(name, "units")
        floor = FLOORS.get(name)
        if floor is not None and rate < floor:
            failures.append(
                f"{name}: {rate:,} {unit}/s below absolute floor {floor:,}")
        ref = committed.get("current", {}).get(name)
        if ref and rate < REGRESSION_TOLERANCE * ref:
            failures.append(
                f"{name}: {rate:,} {unit}/s is a "
                f"{100 * (1 - rate / ref):.0f}% regression vs committed "
                f"{ref:,} (tolerance {100 * (1 - REGRESSION_TOLERANCE):.0f}%)")
    for name in committed.get("current", {}):
        if name not in current:
            failures.append(
                f"{name}: in the committed report but missing from this run")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator core throughput bench (CI perf smoke).")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="write the JSON report here")
    parser.add_argument("--rounds", type=int, default=3,
                        help="best-of rounds per scenario (default 3)")
    parser.add_argument("--check", default=None, metavar="BASELINE.json",
                        help="fail on floors or >20%% regression vs this "
                             "committed report")
    args = parser.parse_args(argv)

    print("bench_simulator_throughput:", file=sys.stderr)
    current = measure(args.rounds)
    report = {
        "bench": "simcore",
        "units": {name: f"{unit}_per_second"
                  for name, unit in UNITS.items()},
        "rounds": args.rounds,
        "baseline_pre_pr": PRE_PR_BASELINE,
        "current": current,
        "speedup_vs_pre_pr": {
            name: round(current[name] / base, 2)
            for name, base in PRE_PR_BASELINE.items() if name in current
        },
        "speedups": {
            # The fluid backend's structural claim: it scans fig15-style
            # grids orders of magnitude faster than packet level.
            "fluid_vs_packet_fig15_cells": round(
                current["fig15_cells_fluid"]
                / current["fig15_cells_packet"], 1),
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")

    if args.check:
        committed = json.loads(pathlib.Path(args.check).read_text())
        failures = check(current, committed)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("perf check passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
