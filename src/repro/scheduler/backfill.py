"""EASY-backfill reservation estimation.

When the head-of-queue job cannot start, EASY backfill grants it a
*reservation*: the earliest time at which, given the expected completion
of the currently running jobs, enough resources will be free.  Later
queue entries may start out of order only if their wall-time limit ends
before that *shadow time*, so the reservation is never delayed.

The shadow-time estimate accounts for node counts, node capacity classes
(for the baseline policy) and total pool memory (for the disaggregated
policies).  It deliberately ignores second-order effects — lending
fragmentation and the memory-node rule — because the running system
re-evaluates feasibility at actual start time anyway; Slurm's own
backfill planner makes equivalent approximations.
"""

from __future__ import annotations

from typing import Iterable

from ..cluster.cluster import Cluster
from ..jobs.job import Job


def expected_finish(job: Job, now: float) -> float:
    """Expected completion used for reservations: start + wall limit.

    Jobs already past their limit (slowdown makes real runtimes exceed
    user estimates) are assumed to finish imminently.
    """
    if job.start_time is None:
        return now
    return max(job.start_time + job.walltime_limit, now)


def shadow_time(
    blocked: Job,
    cluster: Cluster,
    running: Iterable[Job],
    now: float,
    disaggregated: bool,
) -> float:
    """Earliest time ``blocked`` is expected to be startable.

    Walks running jobs in expected-finish order, returning resources to a
    virtual free pool until the blocked job fits.  Returns ``inf`` when
    even draining every running job would not suffice (the scheduler then
    treats the job as waiting for other state changes, e.g. dynamic-policy
    shrinkage).
    """
    c = cluster
    free_nodes = c.n_idle()
    free_mem = c.free_local_total
    # Idle nodes whose capacity class fits, for the baseline policy
    # (O(1) from the cluster's per-class idle tallies).
    fitting_idle = c.fitting_idle_count(blocked.mem_request_mb)

    def feasible(nodes: int, mem: int, fitting: int) -> bool:
        if disaggregated:
            if nodes < blocked.n_nodes:
                return False
            return mem >= blocked.n_nodes * blocked.mem_request_mb
        return fitting >= blocked.n_nodes

    if feasible(free_nodes, free_mem, fitting_idle):
        return now

    order = sorted(running, key=lambda j: (expected_finish(j, now), j.jid))
    nodes, mem, fitting = free_nodes, free_mem, fitting_idle
    for job in order:
        alloc = c.allocations.get(job.jid)
        if alloc is None:
            continue
        nodes += len(alloc.nodes)
        mem += alloc.total()
        if not disaggregated:
            fitting += int(
                (c.capacity_mb[alloc.nodes_array()]
                 >= blocked.mem_request_mb).sum()
            )
        if feasible(nodes, mem, fitting):
            return expected_finish(job, now)
    return float("inf")


def can_backfill(candidate: Job, now: float, shadow: float) -> bool:
    """EASY condition: the candidate must end before the reservation."""
    return now + candidate.walltime_limit <= shadow
