"""Full-sort references for lender and node selection.

The memory pool and the static policy select short prefixes of the
free-DRAM orders from the live free column (``MemoryPool.most_free_first``
/ ``least_free_first``).  These are the orders they must reproduce, built
the slow way with a stable ``argsort``, plus the plans the pool builds on
them.  The parity tests compare against them, and :func:`patch_in`
swaps them into the pool so a whole campaign can run on the references.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.memorypool import MemoryPool

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


def patch_in(monkeypatch) -> None:
    """Make the pool select its prefixes from the full-sort orders."""
    monkeypatch.setattr(MemoryPool, "most_free_first", staticmethod(
        lambda free, k: most_free_order(free)[:k]))
    monkeypatch.setattr(MemoryPool, "least_free_first", staticmethod(
        lambda free, k: best_fit_order(free)[:k]))
