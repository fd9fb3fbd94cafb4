"""Benchmark support: result emission and scaling.

Each benchmark regenerates one of the paper's tables/figures at a scaled-down
default (DESIGN.md §2).  The rendered table is written to
``benchmarks/results/<name>.txt`` and printed (visible with ``pytest -s``);
``EXPERIMENTS.md`` records the paper-vs-measured comparison.

Set ``REPRO_SCALE`` > 1 to enlarge the runs toward paper scale (flows,
durations, and sweep sizes multiply where meaningful).

Sweep-based experiments execute through :mod:`repro.runtime`, so the
``REPRO_*`` environment knobs apply to benchmark runs too:
``REPRO_PARALLEL=4 pytest benchmarks/ ...`` fans each sweep out over 4
worker processes, and results are memoised in the on-disk cache (keyed by
code fingerprint + parameters + seed) so a warm rerun of an unchanged tree
is near-instant; ``REPRO_NO_CACHE=1`` forces cold runs.  The terminal
summary reports the runtime configuration and cache state.
"""

from __future__ import annotations

import hashlib
import os
import pathlib

import pytest

from repro import runtime
from repro.experiments import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Global scale knob: 1 = CI-friendly defaults, larger = closer to the paper.
SCALE = float(os.environ.get("REPRO_SCALE", "1"))


def scaled(n: int, minimum: int = 1) -> int:
    """Scale an integer parameter by REPRO_SCALE."""
    return max(minimum, int(n * SCALE))


def emit(result) -> str:
    """Render, persist, and print an ExperimentResult table."""
    text = format_table(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    full = "".join(c if c.isalnum() else "_" for c in result.name)
    slug = full[:80]
    if len(full) > 80:
        # Truncation could map two long names to the same file; a short
        # stable hash of the full name keeps them distinct.
        slug += "-" + hashlib.sha1(result.name.encode()).hexdigest()[:8]
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")
    print()
    print(text)
    return text


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Report how sweeps executed: worker count and cache state."""
    cfg = runtime.get_config()
    line = f"repro.runtime: parallel={cfg.parallel}"
    if cfg.use_cache:
        cache = runtime.ResultCache(cfg.resolved_cache_dir(),
                                    cfg.max_cache_bytes, cfg.max_cache_entries)
        stats = cache.stats()
        line += (f", cache {stats['entries']} entries"
                 f" / {stats['total_bytes'] / 1e6:.1f} MB at {stats['dir']}")
    else:
        line += ", cache disabled"
    terminalreporter.write_line(line)


@pytest.fixture
def once(benchmark):
    """Run the (expensive) experiment exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  iterations=1, rounds=1)

    return runner
