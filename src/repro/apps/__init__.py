"""Application layer: closed-loop request/response traffic.

The paper's motivating workloads are not open-loop flows but
partition/aggregate services (§2): a master keeps a request outstanding to
each worker and issues the next request as soon as the response returns.
:class:`~repro.apps.rpc.PartitionAggregate` implements that pattern on top
of *any* transport harness: a master fanning requests to N workers, with
per-round completion (the barrier the paper's incast comes from).  The
incast cell's ``workload.rounds`` mode runs it
(:func:`repro.scenarios.cells.run_incast`).
"""

from repro.apps.rpc import PartitionAggregate

__all__ = ["PartitionAggregate"]
