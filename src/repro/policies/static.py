"""Static disaggregated-memory policy (Zacarias et al. [45], paper §2.1).

The job is allocated exactly its submission-time memory request for its
whole lifetime.  Node selection "tries to run the job on nodes with
enough free memory.  If this is not possible, then it will choose nodes
with the most free memory and borrow the remaining memory from other
nodes".  A node that has lent more than half of its capacity becomes a
*memory node*: it keeps lending but cannot start new jobs (enforced by
:meth:`repro.cluster.Cluster.startable`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..cluster.allocation import JobAllocation
from ..jobs.job import Job
from .base import AllocationPolicy


class StaticDisaggregatedPolicy(AllocationPolicy):
    """Fixed request-sized allocation backed by the disaggregated pool."""

    name = "static"
    uses_disaggregation = True
    is_dynamic = False

    def _request_of(self, job: Job) -> int:
        """Admission-time per-node memory demand for ``job``.

        The dynamic policy overrides this for jobs that exhausted their
        OOM-retry budget (paper §2.2: "allocate additional resources
        after a specified number of failures").
        """
        return job.mem_request_mb

    def can_ever_run(self, job: Job) -> bool:
        if job.n_nodes > self.cluster.n_nodes:
            return False
        # On an empty system every node serves min(capacity, request)
        # locally and the remainder is borrowed; feasible iff the total
        # request fits the total pool.
        total_request = job.n_nodes * self._request_of(job)
        return total_request <= self.cluster.total_capacity_mb()

    def plan(self, job: Job) -> Optional[JobAllocation]:
        c = self.cluster
        request = self._request_of(job)
        if c.startable_count < job.n_nodes:
            return None
        free_all = c.free_local()
        startable = c.startable()
        # Selection over the live free column; candidates are in node-id
        # order, so ties fall in node-id order as in a stable subset sort.
        fit = np.flatnonzero(startable & (free_all >= request))
        if len(fit) >= job.n_nodes:
            # Enough nodes can serve the request locally: best-fit among
            # them (least free first) to preserve big free blocks.
            cand, first = fit, self.pool.least_free_first
        else:
            # Choose the nodes with the most free memory and borrow the
            # remainder from the pool.
            cand, first = np.flatnonzero(startable), self.pool.most_free_first
        chosen = cand[first(free_all[cand], job.n_nodes)]
        alloc = JobAllocation(nodes=[int(n) for n in chosen])
        deficits = {}
        for n in alloc.nodes:
            local = min(int(free_all[n]), request)
            alloc.local_mb[n] = local
            if local < request:
                deficits[n] = request - local
        if deficits:
            # Lenders may include the job's own (larger) nodes, but every
            # node's planned local allocation is reserved first.
            plans = self.pool.split_borrow(
                deficits, reduce_free=dict(alloc.local_mb)
            )
            if plans is None:
                return None
            for n, plan in plans.items():
                alloc.remote_mb[n] = {lender: mb for lender, mb in plan}
        return alloc
