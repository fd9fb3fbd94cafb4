"""Command-line interface: reproduce any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig10
    python -m repro run fig15 --set flow_counts=4,16 --set measure_ps=20000000000
    python -m repro run fig15 --parallel 4            # sweep on 4 workers
    python -m repro run fig15 --seed 3 --no-cache     # replicate across seeds
    python -m repro run table1 --json
    python -m repro run fig10 --profile               # where do events go?
    python -m repro run fig15 --profile --parallel 4  # profile the workers too
    python -m repro run fig13 --metrics               # obs summary on stderr
    python -m repro run fig13 --obs-jsonl run.jsonl   # ... and as repro.obs.v1
    python -m repro run fig10 --trace trace.jsonl     # where did the time go?
    python -m repro trace summarize trace.jsonl
    python -m repro cache stats
    python -m repro cache clear

``--set key=value`` overrides a keyword argument of the experiment's
``run`` function; values are parsed as ints, floats, comma-separated tuples,
or protocol-name tuples as appropriate (best effort: int, then float, then
comma-split, then string); one value for a tuple-valued parameter is a
1-tuple, and a key the function does not take is a usage error.

Sweep execution policy — worker count, result cache, retry budget, per-task
timeout — is handled by :mod:`repro.runtime`; the ``run``
flags below override the ``REPRO_*`` environment defaults for one
invocation.  Runs of sweep-based experiments are memoised: an immediate
rerun is served from the on-disk cache (disable with ``--no-cache``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from typing import Callable, Dict

from repro import runtime
from repro.resilience import journal as run_journal
from repro.runtime import probes
from repro.runtime.config import (
    ConfigError, check_env, env_text, parse_number)
from repro.resilience.signals import (
    EXIT_INTERRUPTED,
    graceful_shutdown,
    shutdown_requested,
)


#: ``repro run NAME`` → the ``module:function`` under ``repro.experiments``
#: it calls.  Only the module a run names is imported (DESIGN §16).
_EXPERIMENTS: Dict[str, str] = {
    "summary": "summary:run",
    "rdma": "rdma_comparison:run",
    "incast": "incast_closed_loop:run",
    "ablate-symmetry": "ablations:run_symmetry_ablation",
    "ablate-burst": "ablations:run_opportunistic_ablation",
    "fig1": "fig01_queue_buildup:run",
    "fig2": "fig02_naive_convergence:run",
    "fig5": "table1_buffer_bounds:run_fig5",
    "fig6": "fig06_jitter:run",
    "fig8": "fig08_initial_rate:run",
    "fig9": "fig09_credit_queue:run",
    "fig10": "fig10_parking_lot:run",
    "fig11": "fig11_multibottleneck:run",
    "fig12": "fig12_steady_state:run",
    "fig13": "fig13_convergence_behavior:run",
    "fig14a": "fig14_host_jitter:run_host_delay",
    "fig14b": "fig14_host_jitter:run_inter_credit_gap",
    "fig15": "fig15_flow_scalability:run",
    "fig16": "fig16_link_speed_convergence:run",
    "fig17": "fig17_shuffle:run",
    "fig18": "fig18_param_sensitivity:run",
    "fig19": "fig19_realistic_fct:run",
    "fig20": "fig20_credit_waste:run",
    "fig21": "fig21_speedup:run",
    "table1": "table1_buffer_bounds:run",
    "table3": "table3_queue_occupancy:run",
}


def _experiment(name: str) -> Callable:
    """Import the one experiment module ``name`` lives in; its function."""
    from importlib import import_module

    module, _, attr = _EXPERIMENTS[name].partition(":")
    return getattr(import_module(f"repro.experiments.{module}"), attr)


def _summary(name: str) -> str:
    """First line of the docstring of ``name``'s module, read from its
    source: listing the experiments imports none of them."""
    module = _EXPERIMENTS[name].partition(":")[0]
    path = pathlib.Path(__file__).with_name("experiments") / f"{module}.py"
    doc = path.read_text(encoding="utf-8").split('"""', 2)[1]
    return doc.strip().splitlines()[0]


def _parse_value(raw: str):
    """Best-effort literal parsing for --set values."""
    if "," in raw:
        return tuple(_parse_value(part) for part in raw.split(",") if part)
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_sets(parser, items, shape: str = "KEY=VALUE") -> list:
    """``--set`` items as ``(key, parsed value)`` pairs."""
    pairs = []
    for item in items:
        if "=" not in item:
            parser.error(f"--set expects {shape}, got {item!r}")
        key, _, raw = item.partition("=")
        pairs.append((key, _parse_value(raw)))
    return pairs


def _parse_seeds(parser, raw):
    """``--seeds S1,S2,...`` as a list of ints (``None`` when not given)."""
    if raw is None:
        return None
    seeds = []  # nothing but commas: the whole text is the bad token
    for token in [t for t in raw.split(",") if t] or [raw]:
        try:
            seeds.append(int(token))
        except ValueError:
            parser.error(f"--seeds expects comma-separated integers, "
                         f"got {token!r}")
    return seeds


#: The verbs that run sweeps, and so write the journal and the trace.
_SWEEP_VERBS = ("run", "matrix", "chaos")


def _output_paths(args):
    """``(source, raw, path)`` for every file this invocation writes:
    the report/export flags, the journal and the trace wherever they come
    from (flag, else ``REPRO_*``), and the trace's Perfetto sibling."""
    for flag in ("report_jsonl", "report_csv", "obs_jsonl", "emit_plan"):
        raw = getattr(args, flag, None)
        if raw:
            yield f"--{flag.replace('_', '-')}", raw, raw
    if args.command not in _SWEEP_VERBS:
        return
    for flag, knob in (("journal", "REPRO_JOURNAL"), ("trace", "REPRO_TRACE")):
        raw = getattr(args, flag, None)
        source = f"--{flag}" if raw else knob
        raw = raw or env_text(knob)
        if raw:
            yield source, raw, raw
            if flag == "trace":
                yield source, raw, f"{raw}.perfetto.json"


def _check_output_paths(args) -> None:
    """Try every file this invocation writes *now*: create the parent
    directory (as the journal writer does), open the file for append, and
    remove it again if that created it — so an unusable path is a one-line
    usage error before any work is done, not a traceback (or a silently
    missing journal) after all of it."""
    for source, raw, target in _output_paths(args):
        path = pathlib.Path(target)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not path.exists()
            path.open("a").close()
            if fresh:
                path.unlink()
        except OSError as exc:
            raise ConfigError(f"{source}={raw}: {exc}") from None


def _load_scenario(parser, entry: str, sets, pin=None):
    """The scenario ``entry`` names (a spec file or a bundled name) with the
    ``--set PATH=VALUE`` items applied and each sweep axis in ``pin``
    narrowed to that one value; :class:`~repro.scenarios.SpecError` if the
    result does not validate."""
    from repro import scenarios as sc
    spec_path = sc.resolve_spec(entry)
    scenario = sc.load(spec_path)
    if not sets and not pin:
        return scenario
    data = scenario.to_dict()
    for axis, value in (pin or {}).items():
        data["sweep"][axis] = [value]
    for key, value in _parse_sets(parser, sets, "PATH=VALUE"):
        if isinstance(value, tuple):
            value = list(value)
        sc.schema.set_by_path(data, key, value)
    return sc.Scenario.from_dict(data, source=f"{spec_path} (+overrides)",
                                 base_dir=scenario.base_dir)


def _chaos_scenario(parser, name: str, sets):
    """``repro chaos NAME`` as a scenario: the bundled
    ``fabric_chaos_recovery`` spec — the one home of the fabric, pairing,
    timing and fault window — with its two sweep axes pinned to ExpressPass
    and ``NAME``, so the cells it compiles to *are* that matrix's."""
    return _load_scenario(parser, "fabric_chaos_recovery", sets,
                          pin={"transport.protocol": "expresspass",
                               "chaos.scenario": name})


def _stored_argv(argv) -> list:
    """The argv a resume should replay: this invocation's, un-journaled.

    Any ``--journal`` the user passed is stripped: ``repro resume FILE``
    re-attaches the file *it* was handed, so the re-invocation appends to
    that journal from whatever directory it runs in and however (flag or
    ``REPRO_JOURNAL``) the original run attached it.
    """
    raw = list(argv) if argv is not None else list(sys.argv[1:])
    stored = []
    skip = False
    for token in raw:
        if skip:
            skip = False
        elif token == "--journal":
            skip = True
        elif not token.startswith("--journal="):
            stored.append(token)
    return stored


def _frontier(state) -> str:
    """One-line task census of a loaded journal."""
    s = state.summary()
    torn = f", {s['torn_lines']} torn line(s)" if s["torn_lines"] else ""
    return (f"{s['done']} done, {s['failed']} failed, "
            f"{s['interrupted']} interrupted, "
            f"{len(state.unfinished())} unfinished{torn}")


def _print_result(result, as_json: bool) -> None:
    if as_json:
        print(json.dumps({"name": result.name, "rows": result.rows,
                          "meta": result.meta}, indent=2, default=str))
    else:
        from repro.experiments.table import format_table
        print(format_table(result))


def _activate_journal(args, argv):
    """Resolve ``--journal``/``REPRO_JOURNAL`` into an active run journal
    (or ``None``) and record this process generation's meta.
    """
    path = getattr(args, "journal", None) or env_text("REPRO_JOURNAL")
    if not path:
        return None
    path = pathlib.Path(path)
    generation = 0
    if path.exists():
        state = run_journal.load_journal(path)
        if state.metas:
            generation = state.generation + 1
    journal = run_journal.activate(path)
    journal.meta(argv=_stored_argv(argv), command=args.command,
                 name=getattr(args, "experiment", None)
                 or getattr(args, "spec", None)
                 or getattr(args, "scenario", ""),
                 generation=generation)
    return journal


def _interrupted_exit(journal, signame: str, what: str) -> int:
    """Shared drain epilogue: journal the shutdown, print the resume hint."""
    if journal is not None:
        journal.event("shutdown", signal=signame)
        hint = f"resume with: repro resume {journal.path}"
    else:
        hint = "add --journal FILE to make runs resumable"
    print(f"{what}: interrupted ({signame}); {hint}", file=sys.stderr)
    return EXIT_INTERRUPTED


def _runtime_overrides(args) -> dict:
    """The ``RuntimeConfig`` fields this invocation's flags override.

    Shared by every sweep-running subcommand (each defines a subset of the
    flags).  ``chaos`` is a matrix run with the audit plane forced on, so,
    like every audited, profiled or metered run, it bypasses the result
    cache (:attr:`RuntimeConfig.use_cache`) and its gate sees every task's
    verdict; ``--obs-jsonl`` implies ``--metrics``; a trace path may also
    come from ``REPRO_TRACE``.
    """
    overrides = {}
    for flag, field in (("parallel", "parallel"), ("retries", "retries"),
                        ("timeout", "task_timeout_s")):
        if getattr(args, flag, None) is not None:
            overrides[field] = getattr(args, flag)
    if args.command == "chaos" or getattr(args, "audit", False):
        overrides["audit"] = True
    if getattr(args, "profile", False):
        overrides["profile"] = True
    if getattr(args, "metrics", False) or getattr(args, "obs_jsonl", None):
        overrides["metrics"] = True
    if _trace_path(args):
        overrides["trace"] = True
    if args.no_cache:
        overrides["cache_enabled"] = False
    return overrides


def _trace_path(args):
    return getattr(args, "trace", None) or env_text("REPRO_TRACE")


@contextlib.contextmanager
def _observed(args):
    """The scope a ``run``/``matrix`` invocation executes in: drain-on-signal
    handlers, the flags' runtime config, and one probe session over every
    plane that config enables.

    The session's outer captures cover simulations run directly in this
    process; sweep tasks are captured individually by the scheduler (in
    their worker processes when parallel) and banked on the session —
    capture nesting ensures the two sources never double count.  Yields the
    session; read it after the block.
    """
    opts = {"trace": {"path": _trace_path(args)}}
    with graceful_shutdown(), \
            runtime.using(**_runtime_overrides(args)) as config, \
            probes.session(config.probes, opts) as sess:
        yield sess


def _write_obs_jsonl(args, merged: dict) -> None:
    """``--obs-jsonl FILE`` (``run`` and ``matrix``): the merged metrics
    summary as the ``repro.obs.v1`` JSONL stream."""
    if args.obs_jsonl:
        from repro.obs import export as obs_export
        n = obs_export.write_jsonl(args.obs_jsonl, merged["metrics"])
        print(f"wrote {n} obs record(s) to {args.obs_jsonl}",
              file=sys.stderr)


def _print_matrix_report(args, report, merged: dict, stable: bool) -> None:
    """``repro matrix``'s output: the report files its flags name, then the
    ranked table (or ``--json``) on stdout.

    Reports go to explicit file handles, never stdout: the JSONL/CSV
    streams must stay clean of anything the surrounding environment
    (activation hooks, warnings) may print.  Journaled runs write *stable*
    reports (no cached/wall_s) so a resume's export is byte-identical to
    the uninterrupted baseline's.
    """
    from repro import scenarios as sc
    if args.report_jsonl:
        n = sc.write_report_jsonl(args.report_jsonl, report, stable=stable)
        print(f"wrote {n} report record(s) to {args.report_jsonl}",
              file=sys.stderr)
    if args.report_csv:
        n = sc.write_report_csv(args.report_csv, report, stable=stable)
        print(f"wrote {n} CSV row(s) to {args.report_csv}", file=sys.stderr)
    _write_obs_jsonl(args, merged)
    if args.json:
        print(json.dumps({
            "scenario": report.scenario, "compare": report.compare,
            "objectives": report.objectives, "meta": report.meta,
            "rows": report.rows, "groups": report.groups,
            "ranking": [{"rank": i, "group": g, "score": s}
                        for i, (g, s) in enumerate(report.ranking, 1)],
        }, indent=2, default=str))
    else:
        print(sc.format_report(report))


def _report_probes(merged: dict) -> int:
    """Print every observed plane's merged payload to stderr; 1 if any of
    them carries a failing verdict (an audit violation), else 0."""
    status = 0
    for name, payload in merged.items():
        print(probes.get(name).format(payload), file=sys.stderr)
        if payload.get("ok") is False:
            status = 1
    return status


def main(argv=None) -> int:
    """CLI entry point.

    Thin shell around :func:`_cli` that guarantees the run journal (if one
    was activated) is flushed and detached on *every* exit path — including
    parser errors and experiment exceptions — so a later in-process
    invocation never inherits a stale journal.  A hostile ``REPRO_*`` value
    is one line on stderr and exit 2, like any other usage error.
    """
    try:
        check_env()
        return _cli(argv)
    except ConfigError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    finally:
        run_journal.deactivate()


def _cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce ExpressPass (SIGCOMM 2017) experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    def _add_runtime_options(p: argparse.ArgumentParser) -> None:
        """Execution-policy flags every sweep-running subcommand shares
        (a sweep task is one grid point of an experiment, or one cell of a
        matrix)."""
        p.add_argument("--parallel", default=None, metavar="N",
                       help="run sweep tasks on N worker processes "
                            "(0/1 = serial; default REPRO_PARALLEL or 0)")
        p.add_argument("--shards", type=int, default=None, metavar="N",
                       help=argparse.SUPPRESS)
        p.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache for this run")
        p.add_argument("--retries", default=None, metavar="K",
                       help="retry a failing sweep task up to K times "
                            "(default REPRO_RETRIES or 2)")
        p.add_argument("--timeout", default=None, metavar="SEC",
                       help="per-task timeout in seconds from its start on "
                            "a pool worker, which is killed at expiry")
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="capture a cross-layer trace (repro.obs.trace): "
                            "JSONL at FILE plus Perfetto-loadable "
                            "FILE.perfetto.json (default REPRO_TRACE)")
        p.add_argument("--audit", action="store_true",
                       help="run under the runtime verifier (repro.audit): "
                            "check clock monotonicity, credit rate bounds, "
                            "buffer occupancy, conservation, and path "
                            "symmetry in every simulation; exit 1 on any "
                            "violation")
        p.add_argument("--journal", default=None, metavar="FILE",
                       help="append the run journal (repro.resilience/v2 "
                            "JSONL: every sweep and task event, flushed per "
                            "line) to FILE: tail it for progress, and replay "
                            "an interrupted or killed campaign with "
                            "'repro resume FILE' (default REPRO_JOURNAL)")

    def _add_metrics_options(p: argparse.ArgumentParser) -> None:
        """The metrics plane's flags, shared by ``run`` and ``matrix``."""
        p.add_argument("--metrics", action="store_true",
                       help="collect repro.obs metrics (counters, time "
                            "series, flow spans) in every simulation and "
                            "print a summary to stderr (disables the cache: "
                            "cached results carry no metrics)")
        p.add_argument("--obs-jsonl", default=None, metavar="FILE",
                       help="export the merged obs summary as JSONL "
                            "(schema repro.obs.v1) to FILE; implies "
                            "--metrics")

    runp = sub.add_parser("run", help="run one experiment and print its table")
    runp.add_argument("experiment", help="experiment id, e.g. fig10 or table1")
    runp.add_argument("--set", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="override a run(...) keyword argument")
    runp.add_argument("--json", action="store_true",
                      help="emit rows as JSON instead of a table")
    runp.add_argument("--seed", type=int, default=None,
                      help="override the experiment's seed (where accepted)")
    _add_runtime_options(runp)
    runp.add_argument("--backend", choices=("packet", "fluid"), default=None,
                      help="engine backend for experiments with a fluid "
                           "trend mode (fig15/fig16/fig18); 'fluid' trades "
                           "per-packet fidelity for a 10x+ faster sweep")
    runp.add_argument("--profile", action="store_true",
                      help="profile the simulation event loop "
                           "(repro.perf.profile) and print a per-subsystem "
                           "report to stderr (disables the cache: cached "
                           "results run no simulation)")
    _add_metrics_options(runp)
    matrixp = sub.add_parser(
        "matrix",
        help="compile a scenario spec (YAML/JSON) and run its full "
             "cross-product through the runtime, then print a ranked "
             "comparison report; exit 1 on a failed cell or an audit "
             "violation")
    matrixp.add_argument("spec",
                         help="spec file path, or a bundled scenarios/ name "
                              "(see 'scenarios list')")
    matrixp.add_argument("--backend", choices=("packet", "fluid"),
                         default=None,
                         help="override the spec's engine backend "
                              "(shorthand for --set backend=...)")
    matrixp.add_argument("--seeds", default=None, metavar="S1,S2,...",
                         help="override the spec's seed list")
    matrixp.add_argument("--filter", default=None, metavar="EXPR",
                         help="run only matching cells: space-separated "
                              "terms, each 'axis=value' (exact) or a label "
                              "substring; all must match")
    matrixp.add_argument("--set", action="append", default=[],
                         metavar="PATH=VALUE",
                         help="override a spec field by dotted path, e.g. "
                              "--set timing.measure_ps=5000000000 or "
                              "--set sweep.workload.load=0.2,0.6")
    matrixp.add_argument("--json", action="store_true",
                         help="emit the full report (rows, groups, ranking) "
                              "as JSON on stdout")
    matrixp.add_argument("--report-jsonl", default=None, metavar="FILE",
                         help="write the report as a JSONL record stream "
                              "(schema repro.scenarios.report/v1) to FILE")
    matrixp.add_argument("--report-csv", default=None, metavar="FILE",
                         help="write the per-cell rows as wide CSV to FILE")
    _add_runtime_options(matrixp)
    _add_metrics_options(matrixp)
    resumep = sub.add_parser(
        "resume",
        help="re-invoke an interrupted campaign from its run journal: "
             "completed tasks replay from the result cache and the report "
             "comes out byte-identical to an uninterrupted run")
    resumep.add_argument("journal",
                         help="journal file written via --journal or "
                              "REPRO_JOURNAL")
    scenp = sub.add_parser(
        "scenarios",
        help="inspect the bundled scenario library or lint a spec file")
    scenp.add_argument("action", choices=("list", "validate"))
    scenp.add_argument("spec", nargs="*",
                       help="spec file(s) or bundled name(s) to validate")
    cachep = sub.add_parser(
        "cache", help="inspect or clear the experiment result cache")
    cachep.add_argument("action", choices=("stats", "clear"))
    tracep = sub.add_parser(
        "trace",
        help="inspect a repro.obs.trace JSONL file: per-layer time sinks "
             "(summarize), or schema-check it (validate)")
    tracep.add_argument("action", choices=("summarize", "validate"))
    tracep.add_argument("path", help="trace JSONL file (from --trace or "
                                     "REPRO_TRACE)")
    chaosp = sub.add_parser(
        "chaos",
        help="run the ExpressPass cells of the bundled fabric_chaos_recovery "
             "spec for one fault scenario under the audit plane and report "
             "recovery metrics; exit 1 on a failed cell, a stalled flow, an "
             "audit violation, or goodput recovery below 90%%")
    chaosp.add_argument("scenario",
                        help="scenario name (see 'chaos list'), or 'list'")
    chaosp.add_argument("--seed", type=int, default=1,
                        help="fault-plan / simulation seed (default 1)")
    chaosp.add_argument("--seeds", default=None, metavar="S1,S2,...",
                        help="run the scenario once per seed (overrides "
                             "--seed); seeds are swept via repro.runtime")
    chaosp.add_argument("--set", action="append", default=[],
                        metavar="PATH=VALUE",
                        help="override a field of the fabric_chaos_recovery "
                             "spec by dotted path (as 'matrix --set'), e.g. "
                             "--set chaos.duration_ps=2000000000 or "
                             "--set chaos.reconverge_delay_ps=100000000000")
    chaosp.add_argument("--json", action="store_true",
                        help="emit rows as JSON instead of a table")
    _add_runtime_options(chaosp)
    chaosp.add_argument("--emit-plan", default=None, metavar="FILE",
                        help="write the scenario's fault plan as JSON to "
                             "FILE (for a spec's chaos.plan) and exit")
    args = parser.parse_args(argv)
    _check_output_paths(args)
    # The runtime flags go through the range table their env twins do.
    for flag, knob in (("parallel", "REPRO_PARALLEL"),
                       ("retries", "REPRO_RETRIES"),
                       ("timeout", "REPRO_TASK_TIMEOUT")):
        raw = getattr(args, flag, None)
        if raw is not None:
            setattr(args, flag, parse_number(knob, raw, f"--{flag}"))
    if (getattr(args, "shards", None) or 0) > 1:
        print("repro: --shards is ignored: single-simulation sharding was "
              "removed (DESIGN §13); running serially", file=sys.stderr)

    if args.command == "resume":
        try:
            state = run_journal.load_journal(args.journal)
        except (OSError, ValueError) as exc:
            print(f"resume: {exc}", file=sys.stderr)
            return 1
        if not state.argv:
            print(f"resume: {args.journal}: no meta record with an argv "
                  f"(was the run started with --journal?)", file=sys.stderr)
            return 1
        if state.argv[0] == "resume":
            # A journal can only store run/matrix-family argv; a stored
            # "resume" would re-enter this branch forever.
            print(f"resume: {args.journal}: stored argv is itself a resume; "
                  f"refusing the recursion", file=sys.stderr)
            return 1
        print(f"[repro.resilience] {args.journal}: generation "
              f"{state.generation}, {_frontier(state)}", file=sys.stderr)
        # The stored argv names no journal: re-attach the file we were
        # handed, wherever this process happens to be running.
        argv = state.argv + ["--journal", args.journal]
        print(f"[repro.resilience] re-invoking: repro {' '.join(argv)}",
              file=sys.stderr)
        return main(argv)

    if args.command == "cache":
        config = runtime.get_config()
        cache = runtime.ResultCache(config.resolved_cache_dir(),
                                    config.max_cache_bytes,
                                    config.max_cache_entries)
        if args.action == "stats":
            stats = cache.stats()
            print(f"cache dir:  {stats['dir']}")
            print(f"entries:    {stats['entries']}"
                  f" (cap {stats['max_entries']})")
            print(f"total size: {stats['total_bytes'] / 1e6:.2f} MB"
                  f" (cap {stats['max_bytes'] / 1e6:.0f} MB)")
            print(f"torn entries pruned:    {stats['torn_pruned']}")
            print(f"orphaned temp files:    {stats['orphan_tmp']}")
            print(f"eviction scans skipped: "
                  f"{stats['eviction_scans_skipped']}")
        else:
            removed = cache.clear()
            print(f"removed {removed} entries from {cache.directory}")
        return 0

    if args.command == "trace":
        import warnings
        from repro.obs import trace as obs_trace
        read = (obs_trace.validate_jsonl if args.action == "validate"
                else obs_trace.load_jsonl)
        # The reader's torn-line warning is a notice to the user here, not
        # a warning about a source line.
        with warnings.catch_warnings(record=True) as notices:
            warnings.simplefilter("always")
            try:
                got = read(args.path)
            except (OSError, ValueError) as exc:
                got = exc
        for notice in notices:
            print(f"trace: {notice.message}", file=sys.stderr)
        if isinstance(got, Exception):
            print(f"trace: {got}", file=sys.stderr)
            return 1
        if args.action == "validate":
            counts = ", ".join(f"{k}={v}" for k, v
                               in sorted(got["records"].items()))
            print(f"{args.path}: OK ({got['lines']} line(s); {counts})")
        else:
            print(obs_trace.format_summary(obs_trace.summarize(
                got["records"])))
        return 0

    if args.command == "scenarios":
        from repro import scenarios as sc
        if args.action == "list":
            found = False
            for path in sc.iter_library():
                found = True
                try:
                    spec = sc.load(path)
                except sc.SpecError:
                    print(f"{path.stem:28s} INVALID (run 'scenarios "
                          f"validate {path.name}')")
                    continue
                tags = f" [{','.join(spec.tags)}]" if spec.tags else ""
                print(f"{path.stem:28s} {spec.cell_count:4d} cell(s)"
                      f"{tags}  {spec.description}")
            if not found:
                print(f"no specs in {sc.library_dir()}", file=sys.stderr)
            return 0
        if not args.spec:
            parser.error("scenarios validate needs at least one spec "
                         "file or bundled name")
        bad = 0
        for entry in args.spec:
            try:
                path = sc.resolve_spec(entry)
            except sc.SpecError as exc:
                print(exc.render(), file=sys.stderr)
                bad += 1
                continue
            problems = sc.lint(path)
            if problems:
                bad += 1
                for fld, msg in problems:
                    print(f"{path}: {fld}: {msg}", file=sys.stderr)
            else:
                spec = sc.load(path)
                print(f"{path}: OK ({spec.cell_count} cell(s))")
        return 1 if bad else 0

    journal = None
    if args.command in _SWEEP_VERBS:
        try:
            journal = _activate_journal(args, argv)
        except (OSError, ValueError) as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 1

    if args.command in ("matrix", "chaos"):
        # ``chaos S`` is a matrix run — the bundled fabric_chaos_recovery
        # spec narrowed to its ExpressPass x S cells — with its own table
        # and a gate on the rows; everything between is shared.
        from repro import scenarios as sc
        gated = args.command == "chaos"
        if gated:
            from repro.chaos import scenarios as chaos_scenarios
            if args.scenario == "list":
                for name in chaos_scenarios.SCENARIOS:
                    print(name)
                return 0
            if args.scenario not in chaos_scenarios.SCENARIOS:
                parser.error(
                    f"unknown chaos scenario {args.scenario!r}; "
                    f"try: {', '.join(chaos_scenarios.SCENARIOS)}")
        try:
            if gated:
                scenario = _chaos_scenario(parser, args.scenario, args.set)
            else:
                if args.backend:
                    args.set.insert(0, f"backend={args.backend}")
                scenario = _load_scenario(parser, args.spec, args.set)
        except sc.SpecError as exc:
            print(exc.render(), file=sys.stderr)
            return 1
        if gated and args.emit_plan:
            window = {key: value for key, value in scenario.chaos.items()
                      if key != "scenario"}
            chaos_scenarios.plan_for(args.scenario, seed=args.seed,
                                     **window).save(args.emit_plan)
            print(f"wrote fault plan for {args.scenario!r} to "
                  f"{args.emit_plan}")
            return 0
        seeds = _parse_seeds(parser, args.seeds)
        with _observed(args) as sess:
            try:
                outcome = sc.run_matrix(
                    scenario, seeds=seeds or ([args.seed] if gated else None),
                    cell_filter=None if gated else args.filter)
            except sc.SpecError as exc:
                print(exc.render(), file=sys.stderr)
                return 1
        signame = shutdown_requested()
        if signame:
            # Drained: trace and journal are flushed, but a partial
            # report would be misleading — skip it and point at resume.
            return _interrupted_exit(journal, signame, args.command)
        merged = {name: sess.merged(name) for name in sess.names}
        if gated:
            from repro.experiments.table import ExperimentResult
            rows = []
            for res in outcome.results:
                if res.error is None:
                    row = {"scenario": args.scenario, **res.value,
                           "violations":
                               len(res.probes["audit"]["violations"])}
                    row["ok"] = chaos_scenarios.recovered(row)
                    rows.append(row)
            bad = sum(not row["ok"] for row in rows)
            _print_result(ExperimentResult(
                name=f"chaos: {args.scenario}",
                columns=["scenario", "seed", "pre_gbps", "low_gbps",
                         "post_gbps", "recovered_frac", "recovery_ms",
                         "stalled", "violations", "rehashes", "recoveries",
                         "ok"],
                rows=rows,
                meta={"ok": outcome.ok and not bad,
                      "scenario": args.scenario}), args.json)
        else:
            _print_matrix_report(args, outcome.report, merged,
                                 stable=journal is not None)
        status = _report_probes(merged)
        if not outcome.ok:
            for res in outcome.failed:
                print(f"{args.command}: FAILED cell {res.label}: "
                      f"{res.error}", file=sys.stderr)
            status = 1
        if gated and bad:
            print(f"chaos: FAILED — {bad} of {len(rows)} run(s) stalled, "
                  f"violated an invariant, or recovered below "
                  f"{chaos_scenarios.RECOVERY_FRACTION:.0%} goodput",
                  file=sys.stderr)
            status = 1
        return status

    if args.command == "list":
        for name in sorted(_EXPERIMENTS, key=lambda n: (len(n), n)):
            print(f"{name:8s} {_summary(name)}")
        return 0

    if args.experiment not in _EXPERIMENTS:
        parser.error(f"unknown experiment {args.experiment!r}; "
                     f"try: {', '.join(sorted(_EXPERIMENTS))}")
    fn = _experiment(args.experiment)
    import inspect  # the ``--set`` check is its only use

    params = inspect.signature(fn).parameters
    overrides = {}
    for key, value in _parse_sets(parser, args.set):
        param = params.get(key)
        if param is None:
            raise ConfigError(
                f"--set {key}: {args.experiment} has no parameter {key!r}; "
                f"try: {', '.join(params)}")
        if (isinstance(param.default, tuple)
                and not isinstance(value, tuple)):
            value = (value,)  # one value of a tuple-valued parameter
        overrides[key] = value

    if getattr(args, "backend", None):
        if "backend" not in params:
            parser.error(f"{args.experiment} has no fluid trend mode; "
                         f"--backend applies to fig15, fig16, and fig18")
        overrides["backend"] = args.backend
    if args.seed is not None:
        if "seed" in params:
            overrides["seed"] = args.seed
        else:
            print(f"note: {args.experiment} is analytic and takes no seed; "
                  f"ignoring --seed", file=sys.stderr)

    with _observed(args) as sess:
        try:
            result = fn(**overrides)
        except runtime.SweepError:
            # Every task in the sweep was cut short by the drain; there is
            # no result, but that is an interruption, not a failure.
            if not shutdown_requested():
                raise
            result = None
        except ValueError as exc:
            # A spec-compiled figure refusing its spec, as ``matrix`` does.
            # Only a run that built a spec has loaded the schema module.
            schema = sys.modules.get("repro.scenarios.schema")
            if schema is None or not isinstance(exc, schema.SpecError):
                raise
            print(exc.render(), file=sys.stderr)
            return 1
    signame = shutdown_requested()
    if signame or result is None:
        # A drained run may still hold partial rows; printing them would
        # look like a (wrong) result, so skip straight to the resume hint.
        return _interrupted_exit(journal, signame or "SIGINT",
                                 args.experiment)
    _print_result(result, args.json)
    merged = {name: sess.merged(name) for name in sess.names}
    _write_obs_jsonl(args, merged)
    return _report_probes(merged)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
