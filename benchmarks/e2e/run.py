#!/usr/bin/env python3
"""benchmarks/e2e — the end-to-end, layer-attributed benchmark of ``repro``.

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--rounds R | --seconds T]
                                  [--trace 0|1] [--out DIR] [--pin]

Runs the workloads as real CLI subprocesses (``python -m repro ...``, closed
loop, one client: the next invocation starts when the previous one exits),
prints every metric by name with its unit, checks the outputs, and — unless
``--trace 0`` — does one traced run per workload for the per-layer numbers.
The last line of standard output is one JSON object (the benchmark
contract's result line).  README.md has the catalogue and the reasoning.

A *round* runs every selected workload once (round-robin, so box drift hits
all of them alike): set up, then one repeat, each with the calibration
kernel sampled alongside it (measure.py).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import catalog  # noqa: E402
import check  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import probes  # noqa: E402
import specgen  # noqa: E402

#: Rounds when neither ``--rounds`` nor ``--seconds`` is given.
DEFAULT_ROUNDS = 7
#: Fewest rounds a median is taken over; also the rounds of a ``--trace 1``
#: run, whose time goes to the traced children and probes instead.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """How one repeat of a workload invokes the program."""

    name: str
    parallel: int = 1
    invocations: int = 1
    csv: bool = False
    #: Repeats run on a cache the set-up primed, not on an empty one.
    primed: bool = False


TABLE: Dict[str, Workload] = {w.name: w for w in (
    Workload("packet_sweep"),
    Workload("poisson_fct"),
    Workload("warm_rerun", invocations=10, csv=True, primed=True),
    Workload("fluid_grid", parallel=2),
)}
assert list(TABLE) == list(specgen.WORKLOADS)


@dataclass
class _State:
    """Per-workload measurements and what the last set-up left behind."""

    tally: check.Tally = field(default_factory=check.Tally)
    cpu_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: List[float] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)
    spec: Optional[pathlib.Path] = None
    cells: int = 0
    primed_cache: Optional[pathlib.Path] = None
    prime_rows: Optional[List[dict]] = None
    rows_changed: Optional[int] = None
    digests: Optional[List[str]] = None
    trace_docs: List[dict] = field(default_factory=list)


class Bench:
    """One benchmark run: a seed, a work directory, the measurements."""

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = pathlib.Path(workdir).resolve()
        self.calib = measure.Calibrator()
        self.state: Dict[str, _State] = {}
        self._serial = 0

    # -- plumbing -------------------------------------------------------------

    def _dir(self, name: str) -> pathlib.Path:
        path = self.workdir / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def _fresh_dir(self, parent: str, stem: str) -> pathlib.Path:
        self._serial += 1
        path = self._dir(parent) / f"{stem}-{self._serial}"
        path.mkdir()
        return path

    def _child(self, tally: check.Tally, what: str, argv: List[str],
               cache_dir: pathlib.Path,
               extra_env: Optional[Dict[str, str]] = None) -> measure.ChildUsage:
        """Run one invocation of the program and count it."""
        env = measure.child_env(SRC, cache_dir, self._dir("tmp"), extra_env)
        with open(self.workdir / "children.log", "ab") as log:
            log.write(f"--- {what}: {' '.join(argv)}\n".encode())
            log.flush()
            usage = measure.run_child(argv, env, cwd=str(ROOT), stderr=log)
        check.check_invocation(tally, what, usage.returncode)
        return usage

    def warm_up(self) -> None:
        """Byte-compile the program, untimed: in a fresh checkout the first
        invocations would otherwise pay for writing ``__pycache__``, a cost
        users pay once, not per run."""
        tmp = self._dir("tmp")
        measure.run_child([sys.executable, "-m", "compileall", "-q",
                           str(SRC / "repro")],
                          measure.child_env(SRC, tmp, tmp), cwd=str(ROOT))

    # -- set-up ---------------------------------------------------------------

    def setup(self, wl: Workload) -> float:
        """Generate the spec from the seed, lint it in a fresh interpreter
        and (``warm_rerun``) prime the cache; returns raw CPU seconds."""
        st = self.state.setdefault(wl.name, _State())
        t0 = time.thread_time()  # this thread's: the sampler burns CPU too
        st.spec = specgen.write_spec(wl.name, self.seed, self._dir(wl.name))
        st.cells = specgen.cell_count(specgen.spec_for(wl.name, self.seed))
        raw = time.thread_time() - t0
        scratch = self._fresh_dir(wl.name, "cache-validate")
        raw += self._child(
            st.tally, f"{wl.name}: scenarios validate",
            measure.repro_argv("scenarios", "validate", str(st.spec)),
            scratch).cpu_s
        shutil.rmtree(scratch, ignore_errors=True)
        if wl.primed:
            if st.primed_cache is not None:
                shutil.rmtree(st.primed_cache, ignore_errors=True)
            st.primed_cache = self._fresh_dir(wl.name, "cache-primed")
            prime = self._dir(wl.name) / "prime.jsonl"
            raw += self._child(
                st.tally, f"{wl.name}: prime",
                measure.repro_argv("matrix", str(st.spec), "--parallel", "1",
                                   "--report-jsonl", str(prime)),
                st.primed_cache).cpu_s
            check.check_report(st.tally, f"{wl.name}: prime", prime, st.cells)
            try:
                st.prime_rows = check.stable_rows(prime)
            except (OSError, ValueError):
                st.prime_rows = []
        return raw

    # -- one repeat -----------------------------------------------------------

    def repeat(self, wl: Workload, tag: str, parallel: Optional[int] = None,
               child_mode: Optional[str] = None,
               ) -> Tuple[List[measure.ChildUsage], List[pathlib.Path]]:
        """``wl.invocations`` invocations of the workload's command — the
        real CLI, or (``child_mode``) the same argv under ``traced_child``.
        Returns the usages and the report stems; checking is the caller's
        (untimed) business."""
        st = self.state[wl.name]
        cache = st.primed_cache if wl.primed \
            else self._fresh_dir(wl.name, f"cache-{tag}")
        usages, stems = [], []
        for i in range(wl.invocations):
            stem = self._dir(wl.name) / f"{tag}-{i}"
            args = ["matrix", str(st.spec),
                    "--parallel", str(parallel or wl.parallel),
                    "--report-jsonl", f"{stem}.jsonl"]
            if wl.csv:
                args += ["--report-csv", f"{stem}.csv"]
            if child_mode:
                argv = [sys.executable, str(HERE / "traced_child.py"),
                        f"{stem}.spans.json", child_mode,
                        f"{wl.name}/{tag}/{i}", "--", *args]
            else:
                argv = measure.repro_argv(*args)
            usages.append(self._child(st.tally, f"{wl.name}: {tag}-{i}",
                                      argv, cache))
            stems.append(stem)
        if not wl.primed:
            shutil.rmtree(cache, ignore_errors=True)
        return usages, stems

    def check_repeat(self, wl: Workload, tag: str,
                     stems: List[pathlib.Path]) -> None:
        st = self.state[wl.name]
        for i, stem in enumerate(stems):
            report = pathlib.Path(f"{stem}.jsonl")
            check.check_report(
                st.tally, f"{wl.name}: {tag}-{i}", report, st.cells,
                all_cached=wl.primed,
                same_rows_as=st.prime_rows if wl.primed else None)
            if st.digests is None:
                try:
                    st.digests = check.row_digests(report)
                except (OSError, ValueError):
                    st.digests = []
                st.rows_changed = check.rows_changed(
                    wl.name, self.seed, st.digests)
                if st.rows_changed:
                    print(f"!!! {wl.name}: {st.rows_changed} of "
                          f"{len(st.digests)} result row(s) differ from the "
                          f"digests pinned in {check.REFERENCE.name} — a "
                          f"model change, or a bug", file=sys.stderr)
            report.unlink(missing_ok=True)
            pathlib.Path(f"{stem}.csv").unlink(missing_ok=True)

    # -- untraced rounds ------------------------------------------------------

    def round(self, wl: Workload, index: int) -> None:
        with self.calib.sampling() as during_setup:
            setup_raw = self.setup(wl)
        tag = f"round{index}"
        with self.calib.sampling() as during_repeat:
            usages, stems = self.repeat(wl, tag)
        st = self.state[wl.name]
        st.setup_s.append(measure.calibrated(setup_raw, during_setup))
        st.cpu_s.append(measure.calibrated(
            sum(u.cpu_s for u in usages), during_repeat))
        st.peak_rss_mb.append(max(u.maxrss_mb for u in usages))
        st.wall_s.append(sum(u.wall_s for u in usages))
        self.check_repeat(wl, tag, stems)

    def measure(self, names: List[str], rounds: Optional[int],
                seconds: Optional[float]) -> None:
        """Round-robin rounds: ``rounds`` of them, or as many as fit into
        ``seconds`` per workload (never fewer than ``MIN_ROUNDS``)."""
        start = time.monotonic()
        done = 0
        while True:
            t0 = time.monotonic()
            for name in names:
                self.round(TABLE[name], done)
            done += 1
            now = time.monotonic()
            if rounds is not None:
                if done >= rounds:
                    return
            elif done >= MIN_ROUNDS and \
                    (now - start) + (now - t0) > seconds * len(names):
                return

    def end_to_end(self, name: str) -> Dict[str, Dict[str, float]]:
        st = self.state[name]
        return {"cpu_s": measure.summarize(st.cpu_s),
                "setup_s": measure.summarize(st.setup_s),
                "peak_rss_mb": measure.summarize(st.peak_rss_mb)}

    # -- traced phase ---------------------------------------------------------

    def _calibrated_repeat(self, wl: Workload, tag: str, **kwargs):
        """One repeat under the sampler: ``(calibrated CPU, scale, usages,
        stems)``."""
        with self.calib.sampling() as during:
            usages, stems = self.repeat(wl, tag, **kwargs)
        scale = measure.calibrated(1.0, during)
        return scale * sum(u.cpu_s for u in usages), scale, usages, stems

    def _traced_repeat(self, wl: Workload, mode: str):
        cpu, scale, usages, stems = self._calibrated_repeat(
            wl, mode, parallel=1, child_mode=mode)
        docs = []
        for usage, stem in zip(usages, stems):
            try:
                doc = json.loads(
                    pathlib.Path(f"{stem}.spans.json").read_text())
            except (OSError, ValueError):
                continue  # the invocation's exit code has been counted
            # What the child burnt after its last own timestamp.
            doc["exit_cpu_s"] = usage.cpu_s - doc["end_cpu_s"]
            docs.append(doc)
        self.check_repeat(wl, mode, stems)
        return cpu, scale, docs

    def _probe_runner(self, wl: Workload) -> probes.Runner:
        st = self.state[wl.name]
        out = self._dir("probes")

        def run(spec: str, argv: List[str], env: Dict[str, str]):
            path = specgen.write_spec(spec, self.seed, out)
            cache = self._fresh_dir("probes", "cache")
            with self.calib.sampling() as during:
                usage = self._child(
                    st.tally, f"probe: {spec} {' '.join(argv)}".strip(),
                    measure.repro_argv("matrix", str(path), "--parallel", "1",
                                       *argv), cache, env)
            shutil.rmtree(cache, ignore_errors=True)
            return usage.returncode, measure.calibrated(usage.cpu_s, during)

        return run

    def traced(self, name: str) -> Dict[str, float]:
        """The per-layer metrics of workload ``name`` (after its rounds)."""
        wl, st = TABLE[name], self.state[name]
        m = {metric.name: 0.0 for metric in catalog.PER_LAYER}
        yardstick = statistics.median(st.cpu_s)
        if wl.parallel > 1:
            # The traced run is --parallel 1 (spans of pool workers would
            # not come home), so its yardstick is the untraced CLI at
            # --parallel 1 — which also prices the pool.
            serial_cpu, _scale, _usages, stems = self._calibrated_repeat(
                wl, "serial", parallel=1)
            self.check_repeat(wl, "serial", stems)
            m["runtime.scheduler.pool_cpu_ratio"] = yardstick / serial_cpu
            yardstick = serial_cpu
        plain_cpu, plain_scale, plain_docs = self._traced_repeat(wl, "plain")
        traced_cpu, scale, docs = self._traced_repeat(wl, "traced")
        st.trace_docs = docs
        if docs and plain_docs:
            m.update(layers.layer_metrics(docs, scale))
            # From the plain arm: the traced child's exit also writes spans.
            m["interp.exit_cpu_s"] = plain_scale * statistics.mean(
                d["exit_cpu_s"] for d in plain_docs)
            m["driver.trace_overhead_ratio"] = traced_cpu / plain_cpu
            m["driver.accounted_ratio"] = \
                layers.accounted_cpu_s(plain_docs, plain_scale) / yardstick
        run = self._probe_runner(wl)
        for probe in probes.HOSTED_BY[name]:
            m.update(probes.run_probe(probe, run, self._dir("probes")))
        cpu = measure.summarize(st.cpu_s)
        m["driver.wall_s"] = statistics.median(st.wall_s)
        m["driver.cpu_s_iqr"] = cpu["iqr_share"]
        kernel = measure.summarize(self.calib.readings)
        m["driver.calib_cpu_s"] = kernel["median"]
        m["driver.calib_spread"] = kernel["iqr_share"]
        m["driver.rounds"] = cpu["n"]
        m["driver.rows_changed"] = st.rows_changed or 0
        m["driver.failed_share"] = st.tally.failed_share
        return m


# -- output -------------------------------------------------------------------

def _print_report(bench: Bench, names: List[str],
                  layer: Dict[str, Dict[str, float]]) -> None:
    for name in names:
        st = bench.state[name]
        print(f"== {name} (seed {bench.seed}) ==")
        for metric, s in bench.end_to_end(name).items():
            print(f"  {metric:<42s} {s['median']:>14.4f} "
                  f"{catalog.UNITS[metric]:<6s} min {s['min']:.4f}  "
                  f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
        print(f"  {'failed_share':<42s} {st.tally.failed_share:>14.4f} "
              f"{'ratio':<6s} {st.tally.failed} of {st.tally.attempted} "
              f"invocation(s) + cell(s)")
        for problem in st.tally.problems:
            print(f"  FAILED {problem}")
        if st.rows_changed is None:
            print("  pinned row digests: not compared (no reference for "
                  "this seed)")
        for metric, value in layer.get(name, {}).items():
            print(f"  {metric:<42s} {value:>14.4f} {catalog.UNITS[metric]}")


def _result_line(bench: Bench, names: List[str], trace: Optional[str],
                 layer: Dict[str, Dict[str, float]]) -> str:
    metrics = {}
    for name in names:
        suffix = "" if len(names) == 1 else f"@{name}"
        if trace != "1":
            for metric, s in bench.end_to_end(name).items():
                metrics[metric + suffix] = {"value": s["median"],
                                            "unit": catalog.UNITS[metric]}
        for metric, value in layer.get(name, {}).items():
            metrics[metric + suffix] = {"value": value,
                                        "unit": catalog.UNITS[metric]}
    attempted = sum(bench.state[n].tally.attempted for n in names)
    failed = sum(bench.state[n].tally.failed for n in names)
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed benchmark of repro.")
    parser.add_argument("--seed", type=int, default=specgen.DEFAULT_SEED,
                        help="workload seed (default %(default)s, the seed "
                             "whose row digests are pinned)")
    parser.add_argument("--workload", action="append", choices=list(TABLE),
                        help="run only this workload (repeatable; default: "
                             "all four, interleaved)")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"untraced rounds (default {DEFAULT_ROUNDS}; "
                             f"at least {MIN_ROUNDS})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="instead of --rounds: make as many rounds as "
                             "fit into this many seconds per workload")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; default: both")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="keep the work directory here and write "
                             "DIR/trace.json (default: a temp dir under "
                             "benchmarks/e2e/.work, removed at exit)")
    parser.add_argument("--pin", action="store_true",
                        help="pin this run's row digests as the reference "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.rounds is not None and args.rounds < MIN_ROUNDS:
        parser.error(f"--rounds must be at least {MIN_ROUNDS}")
    if args.pin and args.seed != specgen.DEFAULT_SEED:
        parser.error(f"--pin is for the default seed "
                     f"({specgen.DEFAULT_SEED}) only")
    names = args.workload or list(TABLE)
    rounds = args.rounds
    if args.trace == "1" and rounds is None:
        rounds = MIN_ROUNDS
    elif rounds is None and args.seconds is None:
        rounds = DEFAULT_ROUNDS

    if args.out:
        workdir = pathlib.Path(args.out)
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        (HERE / ".work").mkdir(exist_ok=True)
        workdir = pathlib.Path(tempfile.mkdtemp(dir=HERE / ".work"))
    measure.pin_to_one_cpu()
    # Die through the ``finally`` blocks, so that no child is left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args.seed, workdir)
    try:
        bench.warm_up()
        bench.measure(names, rounds, args.seconds)
        layer = {}
        if args.trace != "0":
            layer = {name: bench.traced(name) for name in names}
        if args.pin:
            for name in names:
                check.pin_reference(name, args.seed, bench.state[name].digests)
        if args.out:
            (workdir / "trace.json").write_text(json.dumps(
                {name: bench.state[name].trace_docs for name in names}))
        _print_report(bench, names, layer)
        print(_result_line(bench, names, args.trace, layer))
    finally:
        if not args.out:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
