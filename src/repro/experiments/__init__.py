"""Experiment harness: one module per reproduced figure/table.

Every experiment module exposes a ``run(...)`` function returning an
:class:`~repro.experiments.runner.ExperimentResult` whose rows print as the
same table/series the paper reports.  Benchmarks under ``benchmarks/`` are
thin wrappers that call these with scaled-down defaults (see DESIGN.md §2
for the scaling substitution); pass larger parameters to approach paper
scale.
"""

from repro._lazy import lazy_exports

_HOMES = {
    "repro.experiments.table": ("ExperimentResult", "format_table"),
    "repro.vocab": ("PROTOCOLS",),
    "repro.experiments.runner": ("ProtocolHarness", "get_harness"),
    "repro.experiments.ablations": ("ablations",),
    "repro.experiments.rdma_comparison": ("rdma_comparison",),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _HOMES)
