"""Lender selection for the disaggregated memory pool.

When a compute node needs more memory than it has locally, the remainder
is borrowed from *lender* nodes.  The paper's static policy (Zacarias et
al., §2.1) borrows from the nodes with the most free memory; a
round-robin alternative is provided as an ablation
(`DESIGN.md §5`).

Every reader of the most-free order uses a short prefix of it: a borrow
plan one or two lenders, a split plan the lenders its walk reaches, the
static policy ``n_nodes`` nodes.  So the order is never sorted whole; the
prefix is *selected* from the live free column
(:meth:`MemoryPool.most_free_first`).  Keys ``±free·n + node`` are
unique, so the ``k`` smallest keys are exactly the first ``k`` entries
of a stable ``argsort`` of the free column, ties in node-id order.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.state import ForkState
from ..obs.provenance import NULL_PROVENANCE
from .cluster import Cluster

#: Lender-selection strategies.  ``most-free`` is the paper's policy;
#: ``nearest`` prefers topologically close lenders (extension, pairs with
#: the slowdown model's distance term); ``round-robin`` is an ablation.
MOST_FREE = "most-free"
ROUND_ROBIN = "round-robin"
NEAREST = "nearest"
STRATEGIES = (MOST_FREE, ROUND_ROBIN, NEAREST)

#: Lenders :meth:`MemoryPool.split_borrow` selects before its walk; a
#: walk that runs off them continues on a prefix twice as long.
SPLIT_PREFIX = 64


def _first_keys(keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest unique ``keys``, smallest first."""
    if k >= len(keys):
        return np.argsort(keys)
    first = np.argpartition(keys, k - 1)[:k]
    return first[np.argsort(keys[first])]


class MemoryPool:
    """Chooses lender nodes for remote-memory borrowing."""

    fork_state = ForkState(
        values=("_rr_cursor",),
        fixed=("cluster", "strategy", "provenance"),
    )

    #: Zero counters kept for ``perfbench/spans.py``, which reads
    #: ``free_index``/``bestfit_index`` ``.repairs``/``.rebuilds``:
    #: selection keeps no sorted index, so nothing repairs or rebuilds.
    free_index = bestfit_index = SimpleNamespace(repairs=0, rebuilds=0)

    def __init__(self, cluster: Cluster, strategy: str = MOST_FREE):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown lender strategy {strategy!r}")
        self.cluster = cluster
        self.strategy = strategy
        self._rr_cursor = 0
        #: causal-event sink for borrow plans; the controller swaps in
        #: the live log when provenance is enabled (guards keep the
        #: disabled default free)
        self.provenance = NULL_PROVENANCE

    @staticmethod
    def most_free_first(free: np.ndarray, k: int) -> np.ndarray:
        """The first ``k`` entries of ``free``'s most-free order.

        Most free first, ties in index order: the first ``k`` of a
        stable ``argsort(-free)``, selected in O(n + k log k).  All
        entries when ``k >= len(free)``.
        """
        if k == 1:
            return np.array([free.argmax()])
        n = len(free)
        return _first_keys(-free * n + np.arange(n), k)

    @staticmethod
    def least_free_first(free: np.ndarray, k: int) -> np.ndarray:
        """The first ``k`` entries of ``free``'s best-fit order.

        Least free first, ties in index order: the first ``k`` of a
        stable ``argsort(free)``, selected in O(n + k log k).
        """
        n = len(free)
        return _first_keys(free * n + np.arange(n), k)

    def _order(self, free: np.ndarray, near: Optional[int]) -> np.ndarray:
        """Whole lender order of the round-robin strategy, or of the
        nearest strategy anchored at ``near``."""
        if self.strategy == NEAREST:
            hops = self.cluster.distance_row(near)
            # Nearest first; most-free breaks distance ties.
            return np.lexsort((-free, hops))
        n = self.cluster.n_nodes
        order = np.roll(np.arange(n), -self._rr_cursor)
        self._rr_cursor = (self._rr_cursor + 1) % n
        return order

    # ------------------------------------------------------------------
    def plan_borrow(
        self,
        amount_mb: int,
        exclude: Sequence[int] = (),
        near: Optional[int] = None,
    ) -> Optional[List[Tuple[int, int]]]:
        """Plan lenders for ``amount_mb``, or ``None`` if infeasible.

        Returns ``[(lender node, MB), ...]`` without mutating any state;
        the caller commits via :meth:`Cluster.apply` / ``add_remote``.
        Nodes in ``exclude`` (normally the requesting compute node) never
        lend to the request.  ``near`` anchors the ``nearest`` strategy.
        """
        if amount_mb < 0:
            raise ValueError(f"negative borrow amount {amount_mb}")
        if amount_mb == 0:
            return []
        live = self.cluster.free_local()
        excluded = {int(node) for node in exclude}
        lendable = self.cluster.free_local_total - sum(
            int(live[node]) for node in excluded
        )
        if lendable < amount_mb:
            if self.provenance.enabled:
                self.provenance.emit(
                    "borrow_fail", amount_mb=amount_mb, near=near,
                    lendable_mb=lendable, excluded=sorted(excluded),
                )
            return None
        free = live.copy()
        if excluded:
            free[sorted(excluded)] = 0
        ranked = self.strategy == ROUND_ROBIN or (
            self.strategy == NEAREST and near is not None
        )
        order = iter(self._order(free, near)) if ranked else None
        plan: List[Tuple[int, int]] = []
        remaining = amount_mb
        while remaining:
            # Most-free: repeated argmax over the scratch column, which
            # gives up what each lender lends; one usually suffices.
            if ranked:
                node = int(next(order))
            else:
                node = int(self.most_free_first(free, 1)[0])
            avail = int(free[node])
            if avail <= 0:
                continue
            take = min(avail, remaining)
            plan.append((node, take))
            remaining -= take
            free[node] -= take
        if self.provenance.enabled:
            self.provenance.emit(
                "borrow_plan", amount_mb=amount_mb, near=near,
                excluded=sorted(excluded),
                lenders=[[n, mb] for n, mb in plan],
            )
        return plan

    def split_borrow(
        self,
        per_node_mb: Dict[int, int],
        reduce_free: Optional[Dict[int, int]] = None,
    ) -> Optional[Dict[int, List[Tuple[int, int]]]]:
        result = self._split_borrow(per_node_mb, reduce_free)
        if self.provenance.enabled:
            lenders = sorted(
                {ln for plan in result.values() for ln, _ in plan}
            ) if result else []
            self.provenance.emit(
                "borrow_split",
                n_requests=len(per_node_mb),
                total_mb=sum(per_node_mb.values()),
                ok=result is not None,
                lenders=lenders,
            )
        return result

    def _split_borrow(
        self,
        per_node_mb: Dict[int, int],
        reduce_free: Optional[Dict[int, int]] = None,
    ) -> Optional[Dict[int, List[Tuple[int, int]]]]:
        """Plan borrows for several compute nodes at once.

        ``per_node_mb`` maps compute node -> MB of remote memory needed.
        A compute node never lends *to itself*, but it may lend its spare
        DRAM to the job's other nodes (cross-node accesses within a job
        are remote accesses like any other).  ``reduce_free`` subtracts
        memory already promised (the nodes' planned local allocations)
        from the lendable pool.

        Returns compute node -> lender plan, or ``None`` if the combined
        demand cannot be met.  Plans are carved from one shared pass so
        the same free MB is never promised twice.  The most-free walk
        reads the first :data:`SPLIT_PREFIX` lenders; one that runs off
        them goes on along the doubled prefix, whose head is the same.
        """
        free = self.cluster.free_local().copy()
        if reduce_free:
            k = len(reduce_free)
            free[np.fromiter(reduce_free.keys(), np.int64, k)] -= np.fromiter(
                reduce_free.values(), np.int64, k
            )
        if (free < 0).any():
            return None
        if self.strategy == NEAREST:
            return self._split_borrow_nearest(per_node_mb, free)
        if self.strategy == ROUND_ROBIN:
            order = self._order(free, None)
        else:
            order = self.most_free_first(free, SPLIT_PREFIX)
        # The walk carves by position: lender ``lenders[i]`` has
        # ``left[i]`` MB left; ``free`` keeps ranking the prefix.
        lenders = order.tolist()
        left = free[order].tolist()
        n = len(free)
        result: Dict[int, List[Tuple[int, int]]] = {}
        ptr = 0
        for node, need in per_node_mb.items():
            if need < 0:
                raise ValueError(f"negative borrow amount {need}")
            plan: List[Tuple[int, int]] = []
            i = ptr
            while need > 0:
                if i == len(lenders):
                    if i == n:
                        return None
                    more = self.most_free_first(free, 2 * i)[i:]
                    lenders += more.tolist()
                    left += free[more].tolist()
                lender = lenders[i]
                if lender == node or left[i] <= 0:
                    i += 1
                    continue
                take = min(left[i], need)
                left[i] -= take
                need -= take
                plan.append((lender, take))
                if left[i] == 0 and i == ptr:
                    ptr += 1
            result[node] = plan
        return result

    def _split_borrow_nearest(
        self, per_node_mb: Dict[int, int], free: np.ndarray
    ) -> Optional[Dict[int, List[Tuple[int, int]]]]:
        """Per-compute-node nearest-first carving (no shared cursor: each
        node has its own distance ordering)."""
        result: Dict[int, List[Tuple[int, int]]] = {}
        for node, need in per_node_mb.items():
            if need < 0:
                raise ValueError(f"negative borrow amount {need}")
            plan: List[Tuple[int, int]] = []
            for lender in self._order(free, node):
                if need == 0:
                    break
                lender = int(lender)
                if lender == node or free[lender] <= 0:
                    continue
                take = int(min(free[lender], need))
                free[lender] -= take
                need -= take
                plan.append((lender, take))
            if need > 0:
                return None
            result[node] = plan
        return result
