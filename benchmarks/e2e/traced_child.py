"""One CLI invocation of ``repro`` run in-process under the span recorder.

Run by the driver in a fresh interpreter, so that — exactly like a real
``python -m repro ...`` — the invocation pays interpreter start-up, the
``repro.cli`` import fan-out and every lazy import behind it::

    python traced_child.py OUT.json traced|plain INVOCATION -- <repro argv>

``plain`` records only the root span (the control arm: the same in-process
run with tracing off); ``traced`` wraps every layer boundary
(:func:`spans.install`) and profiles the event loop with the program's own
``repro.perf.profile.profiled()``.  The result goes to ``OUT.json``.
"""

import time

# CPU the interpreter burnt before the first line of this script.
_STARTUP_CPU_S = time.process_time()

import sys  # noqa: E402

_T0 = time.process_time()
import repro.cli  # noqa: E402,F401

_IMPORT_CPU_S = time.process_time() - _T0
_IMPORT_MODULES = sum(1 for m in sys.modules
                      if m == "repro" or m.startswith("repro."))


def main(argv) -> int:
    import contextlib
    import io
    import json

    import spans  # benchmarks/e2e/spans.py: the script's own directory
    from repro import cli

    out_path, mode, invocation = argv[:3]
    repro_argv = argv[argv.index("--") + 1:]
    rec = spans.SpanRecorder(invocation)
    profile = None
    lazy_import_cpu_s = 0.0
    with contextlib.ExitStack() as stack:
        if mode == "traced":
            # Wrapping imports the layers ``cli.main`` would import lazily.
            t0 = time.process_time()
            finish = spans.install(rec)
            lazy_import_cpu_s = time.process_time() - t0
            from repro.perf.profile import profiled
            session = stack.enter_context(profiled())
        # The report table goes to stdout; formatting it is the program's
        # work, holding it in memory is not the benchmark's business.
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        root = rec.begin("cli.main")
        try:
            returncode = cli.main(repro_argv)
        finally:
            rec.end(root)
    if mode == "traced":
        finish()
        profile = session.report.as_dict()
    # Whatever the process burns after this line — writing this document,
    # interpreter finalisation — the driver books as ``interp.exit_cpu_s``.
    end_cpu_s = time.process_time()
    with open(out_path, "w") as fh:
        json.dump({
            "invocation": invocation,
            "mode": mode,
            "returncode": returncode,
            "startup_cpu_s": _STARTUP_CPU_S,
            "import_cpu_s": _IMPORT_CPU_S,
            "import_modules": _IMPORT_MODULES,
            "lazy_import_cpu_s": lazy_import_cpu_s,
            "end_cpu_s": end_cpu_s,
            "spans": rec.spans,
            "counts": rec.counts,
            "profile": profile,
        }, fh)
    return returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
