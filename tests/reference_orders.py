"""Full-sort references for lender and node selection, a per-node
reference Actuator, and the two-walk slowdown pricing.

The memory pool and the static policy select short prefixes of the
free-DRAM orders from the live free column (``MemoryPool.most_free_first``
/ ``least_free_first``).  These are the orders they must reproduce, built
the slow way with a stable ``argsort``, plus the plans the pool builds on
them.  The dynamic policy's Actuator plans a whole resize against one
scratch free column and commits it in one ``Cluster.resize``;
:func:`actuate_per_node` is the Actuator it must reproduce, committing
node by node with the scalar mutators and planning each borrow on the
live column.  The parity tests compare against them, and :func:`patch_in`
swaps them into the pool and the policy so a whole campaign can run on
the references.  :func:`slowdown_ref` and :func:`slowdown_breakdown_ref`
price a job in two separate lender walks, the float order the contention
model's one walk must reproduce bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.memorypool import MemoryPool
from repro.policies.dynamic import DynamicDisaggregatedPolicy
from repro.slowdown.model import MAX_SLOWDOWN

Plan = List[Tuple[int, int]]


def most_free_order(free) -> np.ndarray:
    """All nodes, most free DRAM first, ties in node-id order."""
    return np.argsort(-np.asarray(free), kind="stable")


def best_fit_order(free) -> np.ndarray:
    """All nodes, least free DRAM first, ties in node-id order."""
    return np.argsort(np.asarray(free), kind="stable")


def best_fit_nodes(free, startable, request_mb: int, k: int) -> np.ndarray:
    """The static policy's node choice by subset sorts.

    The ``k`` least-free startable nodes that can hold ``request_mb``
    locally; when fewer than ``k`` can, the ``k`` most-free startable
    nodes.
    """
    cand = np.flatnonzero(startable)
    free = np.asarray(free)[cand]
    fits = free >= request_mb
    if int(fits.sum()) >= k:
        return cand[fits][best_fit_order(free[fits])[:k]]
    return cand[most_free_order(free)[:k]]


def split_order(free, reduce_free: Optional[Dict[int, int]] = None):
    """``split_borrow``'s lender order and the column it is taken over:
    the most-free order after the planned local allocations in
    ``reduce_free`` are taken out."""
    free = np.array(free)
    for node, mb in (reduce_free or {}).items():
        free[node] -= mb
    return most_free_order(free), free


def plan_borrow_ref(free, amount_mb: int,
                    exclude: Sequence[int] = ()) -> Optional[Plan]:
    """``plan_borrow``'s most-free plan, walking the whole sorted order."""
    free = np.array(free)
    if exclude:
        free[sorted(set(exclude))] = 0
    if int(free.sum()) < amount_mb:
        return None
    plan: Plan = []
    remaining = amount_mb
    for node in most_free_order(free):
        if remaining == 0:
            break
        avail = int(free[node])
        if avail <= 0:
            continue
        take = min(avail, remaining)
        plan.append((int(node), take))
        remaining -= take
    return plan


def split_borrow_ref(
    free, per_node_mb: Dict[int, int],
    reduce_free: Optional[Dict[int, int]] = None,
) -> Optional[Dict[int, Plan]]:
    """``split_borrow``'s most-free carve over the whole sorted order:
    one shared pass, a cursor past the exhausted head, no self-lending."""
    order, free = split_order(free, reduce_free)
    if (free < 0).any():
        return None
    result: Dict[int, Plan] = {}
    ptr = 0
    for node, need in per_node_mb.items():
        plan: Plan = []
        i = ptr
        while need > 0:
            if i >= len(order):
                return None
            lender = int(order[i])
            if lender == node or free[lender] <= 0:
                i += 1
                continue
            take = min(int(free[lender]), need)
            free[lender] -= take
            need -= take
            plan.append((lender, take))
            if free[lender] == 0 and i == ptr:
                ptr += 1
        result[node] = plan
    return result


def _shrink(policy, jid, alloc, node, excess, out) -> None:
    """Release ``excess`` MB on ``node``: remote first, then local."""
    c = policy.cluster
    remote_map = alloc.remote_mb.get(node)
    if remote_map:
        # Release from the most-loaded lenders first so memory nodes
        # recover their ability to start jobs sooner.
        for lender in sorted(remote_map, key=lambda l: -remote_map[l]):
            if excess <= 0:
                break
            give = min(remote_map[lender], excess)
            c.remove_remote(jid, node, lender, give, alloc=alloc)
            out.freed_mb += give
            out.touched_nodes.append(lender)
            excess -= give
    if excess > 0:
        local = alloc.local_mb.get(node, 0)
        give = min(local, excess)
        if give > 0:
            c.shrink_local(jid, node, give, alloc=alloc)
            out.freed_mb += give
            out.touched_nodes.append(node)


def _grow(policy, jid, alloc, node, deficit, out) -> bool:
    """Acquire ``deficit`` MB on ``node``: local first, then remote.

    Returns ``False`` when the pool cannot cover the remainder (OOM).
    """
    c = policy.cluster
    free_local = int(
        c.capacity_mb[node] - c.local_used_mb[node] - c.lent_mb[node]
    )
    take = min(free_local, deficit)
    if take > 0:
        c.grow_local(jid, node, take, alloc=alloc)
        out.grown_mb += take
        out.touched_nodes.append(node)
        deficit -= take
    if deficit == 0:
        return True
    # Any node but this one may lend — including the job's own nodes.
    plan = policy.pool.plan_borrow(deficit, exclude=[node], near=node)
    if plan is None:
        return False
    for lender, mb in plan:
        c.add_remote(jid, node, lender, mb, alloc=alloc)
        out.grown_mb += mb
        out.touched_nodes.append(lender)
    return True


@contextmanager
def coalesced_demand(cluster):
    """Hold back the cluster's demand notifications and deliver their
    sorted union once at exit: what one ``Cluster.resize`` sends for the
    same steps.  Nothing may read lender demand inside the block."""
    dirty = set()
    cluster._notify_demand = dirty.update
    try:
        yield
    finally:
        del cluster._notify_demand
        cluster._notify_demand(sorted(dirty))


def actuate_per_node(policy, jid, alloc, nodes, deltas, out) -> None:
    """The dynamic Actuator node by node: every resize, local-only or
    not, commits each node's change through the scalar mutators before
    the next node plans, each borrow planned on the live free column."""
    with coalesced_demand(policy.cluster):
        for node, delta in zip(nodes.tolist(), deltas.tolist()):
            if delta < 0:
                _shrink(policy, jid, alloc, node, -delta, out)
            elif not _grow(policy, jid, alloc, node, delta, out):
                out.oom = True
                return


def patch_in(monkeypatch) -> None:
    """Make the pool select its prefixes from the full-sort orders, and
    the dynamic policy actuate node by node."""
    monkeypatch.setattr(MemoryPool, "most_free_first", staticmethod(
        lambda free, k: most_free_order(free)[:k]))
    monkeypatch.setattr(MemoryPool, "least_free_first", staticmethod(
        lambda free, k: best_fit_order(free)[:k]))
    monkeypatch.setattr(DynamicDisaggregatedPolicy, "_actuate",
                        actuate_per_node)


def _oversubscription(model, cluster, jobs, lender) -> float:
    demand = model._lender_demand_brute(cluster, jobs, lender)
    return max(demand / model.node_bw_gbps - 1.0, 0.0)


def slowdown_ref(model, job, cluster, jobs) -> float:
    """The job's slowdown from its own lender walk:
    ``1 + rs·rf·(1 + cs·C)·d``, multiplied left to right."""
    alloc = cluster.allocations.get(job.jid)
    if alloc is None:
        return 1.0
    rf = alloc.remote_fraction()
    if rf <= 0.0:
        return 1.0
    prof = model.profiles[job.profile]
    total_mb = 0
    weighted = 0.0
    for lender, mb in alloc.lenders():
        osub = _oversubscription(model, cluster, jobs, lender)
        weighted += mb * osub
        total_mb += mb
    contention = weighted / total_mb if total_mb else 0.0
    s = 1.0 + prof.remote_sensitivity * rf * (
        1.0 + prof.contention_sensitivity * contention
    ) * model._distance_factor(cluster, alloc)
    return min(s, MAX_SLOWDOWN)


def slowdown_breakdown_ref(model, job, cluster, jobs) -> Optional[dict]:
    """The breakdown from a second lender walk, ``base = rs·rf·d``
    grouped first (``None`` when the job has no allocation)."""
    alloc = cluster.allocations.get(job.jid)
    if alloc is None:
        return None
    rf = alloc.remote_fraction()
    if rf <= 0.0:
        return {"slowdown": 1.0, "rf": 0.0, "base_remote": 0.0,
                "contention": 0.0, "lenders": []}
    prof = model.profiles[job.profile]
    d = model._distance_factor(cluster, alloc)
    shares = []
    total_mb = 0
    weighted = 0.0
    for lender, mb in alloc.lenders():
        osub = _oversubscription(model, cluster, jobs, lender)
        shares.append((int(lender), int(mb), osub))
        weighted += mb * osub
        total_mb += mb
    contention = weighted / total_mb if total_mb else 0.0
    base = prof.remote_sensitivity * rf * d
    cs = prof.contention_sensitivity
    lenders = [
        {
            "lender": lender,
            "mb": mb,
            "oversubscription": osub,
            "contribution": base * cs * (mb / total_mb) * osub,
        }
        for lender, mb, osub in shares
    ]
    uncapped = 1.0 + base * (1.0 + cs * contention)
    return {
        "slowdown": min(uncapped, MAX_SLOWDOWN),
        "uncapped": uncapped,
        "rf": rf,
        "distance_factor": d,
        "contention": contention,
        "base_remote": base,
        "lenders": lenders,
    }
