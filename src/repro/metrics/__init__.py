"""Measurement utilities: fairness, FCT statistics, time series, convergence.

A lazy facade (DESIGN §16): a cell that only needs :func:`jain_index`
imports :mod:`repro.metrics.fairness` and not the FCT record type.
"""

from repro._lazy import lazy_exports

_HOMES = {
    "repro.metrics.fairness": ("jain_index",),
    "repro.metrics.fct": ("percentile", "FctStats", "SIZE_BUCKETS",
                          "bucket_of", "fct_stats_by_bucket"),
    "repro.metrics.timeseries": ("QueueSampler", "FlowThroughputSampler",
                                 "convergence_time_ps"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _HOMES)
