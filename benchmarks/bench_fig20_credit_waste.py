"""Fig 20: credit-waste ratio by workload, link speed, and α.

Paper shape: waste is inversely proportional to mean flow size (Web Server
worst: 34 % at 10 G / 60 % at 40 G with α=1/2) and grows with BDP; α=1/16
roughly halves it.
"""

from repro.experiments import fig20_credit_waste
from benchmarks.conftest import emit, scaled


def test_fig20_credit_waste(once):
    result = once(
        fig20_credit_waste.run,
        workloads=("data_mining", "web_server"),
        speeds_gbps=(10, 40),
        profiles=("default", "realistic"),  # alpha = w_init = 1/2, 1/16
        load=0.6,
        n_flows=scaled(250),
        size_cap_bytes=10_000_000,
    )
    emit(result)

    def waste(workload, gbps, alpha):
        return next(r["credit_waste"] for r in result.rows
                    if r["workload"] == workload and r["rate_gbps"] == gbps
                    and r["alpha"] == alpha)

    # Small-flow workloads waste far more credits than elephant workloads.
    assert waste("web_server", 10, "1/2") > 2 * waste("data_mining", 10, "1/2")
    # Higher link speed (bigger BDP) increases waste.
    assert waste("web_server", 40, "1/2") > waste("web_server", 10, "1/2")
    # Dropping alpha to 1/16 reduces waste substantially.
    assert waste("web_server", 10, "1/16") < waste("web_server", 10, "1/2")
