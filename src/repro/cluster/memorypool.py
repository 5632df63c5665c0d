"""Lender selection for the disaggregated memory pool.

When a compute node needs more memory than it has locally, the remainder
is borrowed from *lender* nodes.  The paper's static policy (Zacarias et
al., §2.1) borrows from the nodes with the most free memory; a
round-robin alternative is provided as an ablation
(`DESIGN.md §5`).

The *most-free* orderings are served from a :class:`SortedFreeIndex`: a
lazily maintained sorted view of the cluster's free-DRAM ledger, rebuilt
only when the cluster's generation stamp moved and — for small deltas —
repaired in place from the cluster's free-change log instead of re-sorting
all nodes.  The index orders are bit-compatible with the previous
per-request ``np.argsort`` calls (descending free / ascending node id, and
the ascending variant used by best-fit node selection), so plans are
byte-identical to the unindexed path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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

#: Above this many distinct dirty nodes a full re-sort beats in-place
#: repair (np.delete/np.insert are O(n) memmoves; argsort is O(n log n)
#: but with a larger constant only for small deltas).
REPAIR_LIMIT = 32


class SortedFreeIndex:
    """Sorted free-DRAM node order, maintained against a cluster.

    ``descending=True`` orders by (free desc, node asc) — the lender
    visiting order of the most-free strategy; ``descending=False`` orders
    by (free asc, node asc) — the best-fit node-selection order.  Node
    ids are folded into the sort key (``key = ±free·n + node``), which
    makes keys unique, the order total, and repairs exact.
    """

    #: ``_nodes`` and ``_keys`` are replaced on every re-sort or repair,
    #: never written, so a capture shares them; ``_node_key`` is written
    #: in place.  The rebuild/repair counters are telemetry gauges, so a
    #: forked replay resumes from the captured counts.
    fork_state = ForkState(
        values=("_gen", "_nodes", "_keys", "rebuilds", "repairs"),
        copies=("_node_key",),
        fixed=("cluster", "descending"),
    )

    def __init__(self, cluster: Cluster, descending: bool = True):
        self.cluster = cluster
        self.descending = descending
        self._gen: Optional[int] = None
        self._nodes: Optional[np.ndarray] = None   # node ids, key-ascending
        self._keys: Optional[np.ndarray] = None    # sorted key values
        self._node_key: Optional[np.ndarray] = None  # node id -> its key
        #: diagnostics: how often the index fully re-sorted vs repaired
        self.rebuilds = 0
        self.repairs = 0

    def _key_of(self, free: np.ndarray) -> np.ndarray:
        n = self.cluster.n_nodes
        sign = -1 if self.descending else 1
        return sign * free * n + np.arange(n, dtype=np.int64)

    def _rebuild(self) -> None:
        keys = self._key_of(np.asarray(self.cluster.free_local()))
        order = np.argsort(keys, kind="stable")
        order.flags.writeable = False
        self._nodes = order
        self._keys = keys[order]
        self._node_key = keys
        self.rebuilds += 1

    #: Dirty counts up to this use the segment-merge splice; above it the
    #: masked bulk splice wins (fewer, larger vector ops).
    _SEGMENT_SPLICE_LIMIT = 12

    @staticmethod
    def _reinsert(
        keys: np.ndarray,
        nodes: np.ndarray,
        node_key: np.ndarray,
        changed: List[int],
        new_keys: np.ndarray,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Move ``changed`` nodes to their ``new_keys`` positions.

        Returns the updated ``(keys, nodes)`` arrays, or ``None`` when the
        old entries cannot be located (caller re-sorts from scratch).

        Both splice strategies produce exactly what the former
        ``np.delete`` + ``np.insert`` pair did (the parity suite checks
        the synced order against a fresh stable argsort), they just skip
        its per-call overhead: four generic array rebuilds become one
        output allocation per array filled by segment copies (small dirty
        sets) or shared-mask scatter/gather (large ones).
        """
        n = len(nodes)
        changed_arr = np.asarray(changed, dtype=np.int64)
        old_keys = node_key[changed_arr]
        pos = np.searchsorted(keys, old_keys)
        # Keys are unique, so each position is exact; guard regardless.
        if pos.max(initial=-1) >= n or not np.array_equal(
            nodes[pos], changed_arr
        ):
            return None
        k = len(changed_arr)
        out_keys = np.empty(n, dtype=keys.dtype)
        out_nodes = np.empty(n, dtype=nodes.dtype)
        if k <= SortedFreeIndex._SEGMENT_SPLICE_LIMIT:
            # Merge walk: copy the unchanged stretches between events with
            # slice assignments (memcpy), weaving deletions/insertions in.
            # ``ins_orig`` positions are relative to the *original* array;
            # skipping deleted entries during the walk lands each new key
            # at the same place a post-deletion searchsorted would.
            ins_orig = np.searchsorted(keys, new_keys)
            events = [(int(p), 0, 0, 0) for p in pos]
            events += [
                (int(o), 1, int(nk), int(nn))
                for o, nk, nn in zip(ins_orig, new_keys, changed_arr)
            ]
            events.sort()
            src = dst = 0
            for coord, kind, nk, nn in events:
                seg = coord - src
                if seg > 0:
                    out_keys[dst:dst + seg] = keys[src:src + seg]
                    out_nodes[dst:dst + seg] = nodes[src:src + seg]
                    dst += seg
                    src += seg
                if kind == 0:
                    src += 1
                else:
                    out_keys[dst] = nk
                    out_nodes[dst] = nn
                    dst += 1
            out_keys[dst:] = keys[src:]
            out_nodes[dst:] = nodes[src:]
        else:
            keep = np.ones(n, dtype=bool)
            keep[pos] = False
            kept_keys = keys[keep]
            kept_nodes = nodes[keep]
            by_key = np.argsort(new_keys, kind="stable")
            new_keys = new_keys[by_key]
            new_nodes = changed_arr[by_key]
            fin = np.searchsorted(kept_keys, new_keys) + np.arange(k)
            mask = np.ones(n, dtype=bool)
            mask[fin] = False
            out_keys[fin] = new_keys
            out_nodes[fin] = new_nodes
            out_keys[mask] = kept_keys
            out_nodes[mask] = kept_nodes
        return out_keys, out_nodes

    def _repair(self, dirty: List[int]) -> None:
        free = np.asarray(self.cluster.free_local())
        n = self.cluster.n_nodes
        sign = -1 if self.descending else 1
        changed = sorted(set(dirty))
        changed_arr = np.asarray(changed, dtype=np.int64)
        new_keys = sign * free[changed_arr] * n + changed_arr
        repaired = self._reinsert(
            self._keys, self._nodes, self._node_key, changed, new_keys
        )
        if repaired is None:
            self._rebuild()
            return
        self._keys, self._nodes = repaired
        self._nodes.flags.writeable = False
        self._node_key[changed_arr] = new_keys
        self.repairs += 1

    def nodes_with_overrides(self, free_override: Dict[int, int]) -> np.ndarray:
        """Index order with some nodes' free values overridden.

        Used by :meth:`MemoryPool.split_borrow`, where the job's planned
        local allocations are subtracted from the lendable pool before
        ordering.  The synced index is repaired on a *copy* — the live
        index never sees the overrides.
        """
        self.nodes_in_order()
        if not free_override:
            return self._nodes
        n = self.cluster.n_nodes
        sign = -1 if self.descending else 1
        changed = sorted(free_override)
        changed_arr = np.asarray(changed, dtype=np.int64)
        override_vals = np.asarray(
            [free_override[c] for c in changed], dtype=np.int64
        )
        new_keys = sign * override_vals * n + changed_arr
        repaired = self._reinsert(
            self._keys, self._nodes, self._node_key, changed, new_keys
        )
        if repaired is not None:
            return repaired[1]
        free = np.asarray(self.cluster.free_local()).copy()
        for node, value in free_override.items():
            free[node] = value
        return np.argsort(self._key_of(free), kind="stable")

    def nodes_in_order(self) -> np.ndarray:
        """Node ids in index order, synchronised with the cluster."""
        gen = self.cluster.generation
        if self._gen == gen and self._nodes is not None:
            return self._nodes
        if self._nodes is None:
            self._rebuild()
        else:
            dirty = self.cluster.free_changes_since(self._gen)
            if dirty is None:
                self._rebuild()
            else:
                distinct = set(dirty)
                if len(distinct) > REPAIR_LIMIT:
                    self._rebuild()
                elif distinct:
                    self._repair(sorted(distinct))
        self._gen = gen
        return self._nodes

    def check_consistent(self) -> None:
        """Raise ``AssertionError`` if the synced index mismatches a fresh sort."""
        got = self.nodes_in_order()
        keys = self._key_of(np.asarray(self.cluster.free_local()))
        want = np.argsort(keys, kind="stable")
        assert np.array_equal(got, want), (
            f"sorted-free index out of sync: {got[:16]}... != {want[:16]}..."
        )


class MemoryPool:
    """Chooses lender nodes for remote-memory borrowing."""

    fork_state = ForkState(
        values=("_rr_cursor",),
        objects=("free_index", "bestfit_index"),
        fixed=("cluster", "strategy", "provenance"),
    )

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
        #: shared sorted views of the free ledger (also used by the
        #: static policy's node selection)
        self.free_index = SortedFreeIndex(cluster, descending=True)
        self.bestfit_index = SortedFreeIndex(cluster, descending=False)

    def _order(self, free: np.ndarray, near: Optional[int]) -> np.ndarray:
        """Lender visiting order for one request (full per-request sort).

        Kept as the brute-force reference: the most-free path now reads
        :attr:`free_index` instead (see :meth:`_most_free_order`), and the
        parity tests patch this method back in to prove byte-identity.
        """
        if self.strategy == NEAREST and near is not None:
            hops = self.cluster.distance_row(near)
            # Nearest first; most-free breaks distance ties.
            return np.lexsort((-free, hops))
        if self.strategy == ROUND_ROBIN:
            n = self.cluster.n_nodes
            order = np.roll(np.arange(n), -self._rr_cursor)
            self._rr_cursor = (self._rr_cursor + 1) % n
            return order
        return np.argsort(-free, kind="stable")

    def _most_free_order(self, near: Optional[int]) -> np.ndarray:
        """Lender order against the *live* cluster ledger.

        For the most-free strategy this is the maintained index (excluded
        or exhausted nodes are skipped by the callers, which preserves
        the relative order the full sort would produce).  The nearest and
        round-robin strategies keep their per-request orderings.
        """
        if self.strategy == MOST_FREE:
            return self.free_index.nodes_in_order()
        return self._order(np.asarray(self.cluster.free_local()), near)

    # ------------------------------------------------------------------
    def available_mb(self, exclude: Iterable[int] = ()) -> int:
        """Total borrowable memory outside the excluded nodes."""
        free = self.cluster.free_local()
        total = self.cluster.free_local_total
        for node in exclude:
            total -= int(free[node])
        return total

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
        free = self.cluster.free_local()
        excluded = {int(node) for node in exclude}
        lendable = self.cluster.free_local_total - sum(
            int(free[node]) for node in excluded
        )
        if lendable < amount_mb:
            if self.provenance.enabled:
                self.provenance.emit(
                    "borrow_fail", amount_mb=amount_mb, near=near,
                    lendable_mb=lendable, excluded=sorted(excluded),
                )
            return None
        order = self._most_free_order(near)
        plan: List[Tuple[int, int]] = []
        remaining = amount_mb
        for node in order:
            node = int(node)
            if node in excluded:
                continue
            avail = int(free[node])
            if avail <= 0:
                continue
            take = min(avail, remaining)
            plan.append((node, take))
            remaining -= take
            if remaining == 0:
                if self.provenance.enabled:
                    self.provenance.emit(
                        "borrow_plan", amount_mb=amount_mb, near=near,
                        excluded=sorted(excluded),
                        lenders=[[n, mb] for n, mb in plan],
                    )
                return plan
        return None  # pragma: no cover - guarded by the sum check above

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
        the same free MB is never promised twice.
        """
        free = np.asarray(self.cluster.free_local()).copy()
        if reduce_free:
            for node, mb in reduce_free.items():
                free[node] -= mb
        if (free < 0).any():
            return None
        if self.strategy == NEAREST:
            return self._split_borrow_nearest(per_node_mb, free)
        if self.strategy == MOST_FREE:
            order = self.free_index.nodes_with_overrides(
                {node: int(free[node]) for node in (reduce_free or {})}
            )
        else:
            order = self._order(free, None)
        result: Dict[int, List[Tuple[int, int]]] = {}
        ptr = 0
        for node, need in per_node_mb.items():
            if need < 0:
                raise ValueError(f"negative borrow amount {need}")
            plan: List[Tuple[int, int]] = []
            i = ptr
            while need > 0:
                if i >= len(order):
                    return None
                lender = int(order[i])
                if lender == node or free[lender] <= 0:
                    i += 1
                    continue
                take = int(min(free[lender], need))
                free[lender] -= take
                need -= take
                plan.append((lender, take))
                if free[lender] == 0 and i == ptr:
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
