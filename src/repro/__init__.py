"""ExpressPass reproduction (SIGCOMM 2017).

Quickstart::

    from repro import Simulator, ExpressPassFlow, ExpressPassParams
    from repro.topology import dumbbell

    sim = Simulator(seed=1)
    topo = dumbbell(sim, n_pairs=2)
    flows = [ExpressPassFlow(s, r, size_bytes=1_000_000)
             for s, r in zip(topo.senders, topo.receivers)]
    sim.run()
    print([f.fct_ps for f in flows])

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

#: Home module -> the public names it defines, imported on first access.
_HOMES = {
    "repro.sim.engine": ("Simulator",),
    "repro.sim.units": ("PS", "NS", "US", "MS", "SEC", "KB", "MB", "GBPS"),
    "repro.core": (
        "ExpressPassFlow", "ExpressPassParams", "CreditFeedbackControl",
        "max_credit_rate_cps", "SenderState", "ReceiverState"),
    "repro.transport": (
        "Flow", "RenoFlow", "CubicFlow", "DctcpFlow", "HullFlow", "DxFlow",
        "RcpFlow", "IdealFlow", "OracleRateController", "DcqcnFlow",
        "TimelyFlow", "install_rcp", "install_phantom_queues",
        "install_dcqcn_marking"),
    "repro.topology": (
        "Network", "LinkSpec", "dumbbell", "single_switch", "parking_lot",
        "multi_bottleneck", "fat_tree", "oversubscribed_clos"),
    "repro.metrics": (
        "jain_index", "percentile", "FctStats", "fct_stats_by_bucket"),
}
__all__, __getattr__, __dir__ = lazy_exports(globals(), _HOMES)
