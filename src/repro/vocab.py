"""Names a scenario spec may use, owned apart from the code they select.

Stdlib-only on purpose (DESIGN §16): validating a spec, listing choices in
an error message or compiling a fully cached matrix needs the *names*, not
the simulator behind them.  The modules that give the names meaning
re-export these tuples, and ``tests/test_import_layering.py`` holds each
to exactly the set its owner implements.
"""

#: Transports :func:`repro.experiments.runner.get_harness` builds.
PROTOCOLS = (
    "expresspass",
    "expresspass-naive",
    "dctcp",
    "rcp",
    "hull",
    "dx",
    "reno",
    "cubic",
    "ideal",
    "dcqcn",   # RDMA baselines (§8): run over a PFC lossless fabric
    "timely",
)

#: Table 2 flow-size distributions, the keys of
#: :data:`repro.workloads.distributions.WORKLOADS` in its order.
DISTRIBUTIONS = ("data_mining", "web_search", "cache_follower", "web_server")
