#!/usr/bin/env python3
"""A/A: the benchmark run twice on the same tree, judged by its own bounds.

    python3 benchmarks/e2e/aa.py [--runs 10] [--seed 1] > benchmarks/e2e/AA.txt

Two sets of runs of the command in ``BENCHMARK.json``, exactly as the
benchmark's driver makes them: one run per (workload, seed), ``--runs``
seeds per set, the second set in the opposite round order (seeds descending,
workloads reversed).  For every end-to-end metric x workload it prints each
set's median and spread (interquartile range over median, across the
seeds) and the relative difference between the two medians against the
metric's bound; one traced run per workload and set must agree on every
*count* metric to the last digit.  Exits non-zero on a miss:

* a spread above the metric's bound (``setup_s`` excepted, as in the
  contract — its medians are still compared),
* a second median worse than the first by more than the bound,
* any failed operation, or a count metric that differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402


def _run(manifest: dict, workload: str, seed: int, trace: int) -> dict:
    argv = list(manifest["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"aa: {' '.join(argv)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def _spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _one_set(manifest: dict, seeds: List[int], workloads: List[str],
             label: str, count_seed: int) -> dict:
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    failed = attempted = 0
    for seed in seeds:
        for workload in workloads:
            result = _run(manifest, workload, seed, trace=0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[workload].setdefault(name, []).append(m["value"])
            print(f"# set {label} seed {seed} {workload}: "
                  f"{result['wall_s']:.1f} s wall, "
                  + ", ".join(f"{n} {m['value']:.4f}"
                              for n, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    counts = {}
    for workload in workloads:
        result = _run(manifest, workload, count_seed, trace=1)
        attempted += result["attempted"]
        failed += result["failed"]
        counts[workload] = {n: result["metrics"][n]["value"]
                            for n in catalog.COUNT_METRICS}
    return {"values": values, "counts": counts,
            "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per set (default %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed (default %(default)s)")
    args = parser.parse_args(argv)
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in manifest["workloads"]]
    seeds = list(range(args.seed, args.seed + args.runs))

    a = _one_set(manifest, seeds, workloads, "A", args.seed)
    b = _one_set(manifest, seeds[::-1], workloads[::-1], "B", args.seed)

    misses = 0
    print(f"A/A of {' '.join(manifest['command'])}: 2 sets x {args.runs} "
          f"seeds ({seeds[0]}..{seeds[-1]}) x {len(workloads)} workloads, "
          f"run_seconds {manifest['run_seconds']}; set B in reverse order")
    print(f"{'workload':<13s} {'metric':<12s} {'median A':>10s} "
          f"{'spread A':>9s} {'median B':>10s} {'spread B':>9s} "
          f"{'B vs A':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a["values"][workload][name], b["values"][workload][name]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma
            if metric["better"] == "higher":
                worse = -worse
            sa, sb = _spread(va), _spread(vb)
            problems = []
            if name != "setup_s" and max(sa, sb) > bound:
                problems.append("spread above bound")
            if worse > bound:
                problems.append("second median worse than bound")
            misses += len(problems)
            print(f"{workload:<13s} {name:<12s} {ma:>10.4f} {sa:>8.1%} "
                  f"{mb:>10.4f} {sb:>8.1%} {worse:>+8.1%} {bound:>6.0%}  "
                  f"{'MISS: ' + '; '.join(problems) if problems else 'ok'}")
    for label, one in (("A", a), ("B", b)):
        share = one["failed"] / one["attempted"]
        print(f"failed_share set {label}: {share:.4f} "
              f"({one['failed']} of {one['attempted']})")
        misses += one["failed"] > 0
    differing = [(w, n) for w in workloads for n in catalog.COUNT_METRICS
                 if a["counts"][w][n] != b["counts"][w][n]]
    print(f"count metrics: {len(catalog.COUNT_METRICS)} x {len(workloads)} "
          f"workloads compared, {len(differing)} differ")
    for workload, name in differing:
        print(f"  MISS: {name} @ {workload}: {a['counts'][workload][name]} "
              f"vs {b['counts'][workload][name]}")
    misses += len(differing)
    print("A/A: " + ("PASS" if not misses else f"{misses} MISS(ES)"))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
