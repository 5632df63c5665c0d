"""Cluster state: columnar node ledgers with exact memory accounting.

All memory book-keeping is integer MB.  Per-node state lives in parallel
numpy arrays owned by a :class:`~repro.cluster.columns.NodeColumns`
struct-of-arrays store, whose columns :class:`Cluster` aliases as
attributes.  Three ledgers describe the memory state:

* ``local_used_mb`` — DRAM consumed by the job running *on* that node,
* ``lent_mb``       — DRAM lent to jobs running on *other* nodes,
* ``free local``    — ``capacity − local_used − lent`` (derived column).

Invariants (asserted by :meth:`Cluster.check_invariants` and
property-tested):

* every ledger entry is non-negative and ``local_used + lent ≤ capacity``;
* the sum of all lent memory equals the sum of all borrowed memory across
  the live :class:`~repro.cluster.allocation.JobAllocation` records;
* a node runs at most one job (nodes are CPU-exclusive, paper §2.1).

Incremental aggregates (this module's hot-path contract): every mutator
(:meth:`Cluster.apply` / :meth:`~Cluster.release` /
:meth:`~Cluster.resize`, and :meth:`~Cluster.expand_capacity` for
what-if) updates running scalar aggregates (``busy_count``, ``lent_total``,
``local_used_total``, ``memory_node_count``, ``startable_count``) and the
derived ``free_local`` / ``memnode`` columns in place, so per-event
accounting, scheduling pre-checks, backfill shadow estimation and
telemetry sampling are O(changed nodes) instead of O(n_nodes).
:meth:`~Cluster.recompute_aggregates` is the brute-force path that
:meth:`~Cluster.check_invariants` (and the property tests) cross-check
the incremental values against.

Readers that need an order over free DRAM (the memory pool's lender and
node choice) select it from the live ``free_local`` column per request,
so no mutator keeps a change log for them.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.config import SystemConfig
from ..core.errors import AllocationError
from ..core.state import ForkState
from .allocation import JobAllocation
from .columns import PAGE_NODES, ColumnPageStore, NodeColumns


class Cluster:
    """Mutable cluster state shared by scheduler and allocation policies."""

    #: The python-side ledgers.  The columnar arrays and the per-lender
    #: ``lender_jobs`` maps are bound once and roll back through the
    #: copy-on-write store instead (page by page and lender by lender:
    #: :class:`~repro.cluster.columns.ColumnPageStore`), so a restore
    #: writes every ledger here wholesale, with no mutator and no demand
    #: notification: the contention model's demand cache is captured at
    #: the same instant and restored with it.
    fork_state = ForkState(
        values=(
            "busy_count", "busy_large_count", "local_used_total",
            "lent_total", "memory_node_count", "startable_count",
            "_total_capacity",
        ),
        object_maps=("allocations",),
        fixed=(
            "config", "columns", "is_large", "capacity_mb", "local_used_mb",
            "lent_mb", "remote_held_mb", "busy", "job_on_node", "lender_jobs",
            "_n_large", "_free_local", "_free_view", "_memnode",
            "_memnode_view", "_demand_listeners", "_prov_tap",
        ),
        # lazy interconnect caches (pure functions of the node count) and
        # the copy-on-write store that performs the rollback
        survive=("_torus", "_distance_rows", "_cow"),
    )

    #: Zero kept for ``perfbench/spans.py``, which reads it: no free-change
    #: log is kept, so none overflows.
    free_log_overflows = 0

    def __init__(self, config: SystemConfig):
        self.config = config
        n = config.n_nodes
        n_large = config.n_large_nodes
        # Large nodes occupy the lowest indices (deterministic layout).
        is_large = np.zeros(n, dtype=bool)
        is_large[:n_large] = True
        capacity = np.where(
            is_large, config.large_mem_mb, config.normal_mem_mb
        ).astype(np.int64)
        #: the columnar node store (struct of arrays); the attributes
        #: below alias its columns, so either spelling reads the same
        #: memory.  All writes funnel through this class's mutators.
        self.columns = NodeColumns(capacity, is_large)
        self.is_large = self.columns.is_large
        self.capacity_mb = self.columns.capacity_mb
        self.local_used_mb = self.columns.local_used_mb
        self.lent_mb = self.columns.lent_mb
        #: per-node MB the job running on the node borrows from others
        #: (columnar mirror of its allocation's ``remote_on`` totals)
        self.remote_held_mb = self.columns.remote_held_mb
        self.busy = self.columns.busy
        self.job_on_node = self.columns.job_on_node
        #: live allocations by job id
        self.allocations: Dict[int, JobAllocation] = {}
        #: per lender node: job id -> MB currently borrowed from it
        self.lender_jobs: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._torus = None
        self._distance_rows: Dict[int, np.ndarray] = {}
        # ---- incremental aggregates --------------------------------------
        #: number of busy (job-running) nodes
        self.busy_count: int = 0
        #: number of busy *large* nodes (per-class idle counts for backfill)
        self.busy_large_count: int = 0
        #: total DRAM consumed by jobs on their own nodes (MB)
        self.local_used_total: int = 0
        #: total DRAM lent to remote borrowers (MB)
        self.lent_total: int = 0
        #: nodes that lent more than half their capacity
        self.memory_node_count: int = 0
        #: idle nodes that are not memory nodes (may start a job)
        self.startable_count: int = n
        self._total_capacity: int = int(self.capacity_mb.sum())
        self._n_large: int = int(n_large)
        # Derived columns; exposed through read-only views so consumers
        # cannot desync them (they copy before scratch mutations).
        self._free_local = self.columns.free_local
        self._free_view = self._free_local.view()
        self._free_view.flags.writeable = False
        self._memnode = self.columns.memnode
        self._memnode_view = self._memnode.view()
        self._memnode_view.flags.writeable = False
        #: demand-ledger listeners, called as ``listener(cluster, lenders)``
        #: whenever the borrow layout or total allocation of a job changes
        #: (``lenders`` = the job's lender nodes whose demand may change)
        self._demand_listeners: List[Callable[["Cluster", Sequence[int]], None]] = []
        #: provenance tap, called as ``tap(kind, jid, alloc)`` after a
        #: whole-allocation mutation commits (None = disabled, free)
        self._prov_tap: Optional[Callable[[str, int, JobAllocation], None]] = None
        #: armed copy-on-write page store (None = disabled, one branch
        #: per mutator).  While armed, every columnar write preserves
        #: the pages it touches so a snapshot can roll them back in
        #: O(changed pages); see :mod:`repro.whatif`.
        self._cow: Optional[ColumnPageStore] = None

    # ------------------------------------------------------------------
    # Copy-on-write arming (the snapshot/fork primitive)
    # ------------------------------------------------------------------
    def arm_cow(self, page_nodes: int = PAGE_NODES) -> ColumnPageStore:
        """Arm (or return the armed) COW store over the columns and the
        lender maps."""
        if self._cow is None:
            self._cow = ColumnPageStore(self.columns, self.lender_jobs,
                                        page_nodes)
        return self._cow

    def disarm_cow(self) -> None:
        """Disarm COW tracking (pending dirty pages are forgotten)."""
        self._cow = None

    # ------------------------------------------------------------------
    # Interconnect (lazy; used by topology-aware lending and the optional
    # distance term of the slowdown model)
    # ------------------------------------------------------------------
    @property
    def torus(self):
        if self._torus is None:
            from .interconnect import Torus

            self._torus = Torus.for_nodes(self.config.n_nodes)
        return self._torus

    def distance_row(self, node: int) -> np.ndarray:
        """Hop distances from ``node`` to every node (cached per node)."""
        row = self._distance_rows.get(node)
        if row is None:
            row = self.torus.distance_row(node, self.n_nodes)
            self._distance_rows[node] = row
        return row

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.config.n_nodes

    def free_local(self) -> np.ndarray:
        """Physically free DRAM per node (maintained read-only vector)."""
        return self._free_view

    def is_memory_node(self) -> np.ndarray:
        """Mask of nodes that lent more than half their capacity."""
        return self._memnode_view

    def startable(self) -> np.ndarray:
        """Mask of nodes on which a new job may start (idle, not a memory node)."""
        return (~self.busy) & ~self._memnode

    @property
    def free_local_total(self) -> int:
        """Total physically free DRAM across all nodes (MB, O(1))."""
        return self._total_capacity - self.local_used_total - self.lent_total

    def n_idle(self) -> int:
        return self.n_nodes - self.busy_count

    def total_capacity_mb(self) -> int:
        return self._total_capacity

    def total_allocated_mb(self) -> int:
        return self.local_used_total + self.lent_total

    def fitting_idle_count(self, request_mb: int) -> int:
        """Idle nodes whose *capacity* covers ``request_mb`` (O(1)).

        Capacity takes exactly two values (normal/large node classes), so
        the count follows from the per-class idle tallies.
        """
        idle_large = self._n_large - self.busy_large_count
        idle_normal = (self.n_nodes - self._n_large) - (
            self.busy_count - self.busy_large_count
        )
        count = 0
        if self.config.large_mem_mb >= request_mb:
            count += idle_large
        if self.config.normal_mem_mb >= request_mb:
            count += idle_normal
        return count

    def borrowers_of(self, lender: int) -> Dict[int, int]:
        """Jobs currently borrowing from ``lender`` (job id -> MB)."""
        return self.lender_jobs[lender]

    # ------------------------------------------------------------------
    # Demand-ledger listeners (incremental contention bookkeeping)
    # ------------------------------------------------------------------
    def add_demand_listener(
        self, listener: Callable[["Cluster", Sequence[int]], None]
    ) -> None:
        """Register ``listener(cluster, lenders)`` for borrow-layout changes."""
        if listener not in self._demand_listeners:
            self._demand_listeners.append(listener)

    def set_provenance_tap(
        self, tap: Optional[Callable[[str, int, JobAllocation], None]]
    ) -> None:
        """Install ``tap(kind, jid, alloc)`` on apply/release commits.

        A :meth:`resize` already reaches observers through the demand
        listener pub/sub; the tap covers the whole-allocation seams
        those notifications cannot attribute to a single job.  ``None``
        (the default) keeps the mutators tap-free.
        """
        self._prov_tap = tap

    def remove_demand_listener(self, listener) -> None:
        try:
            self._demand_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_demand(self, lenders: Sequence[int]) -> None:
        if not lenders or not self._demand_listeners:
            return
        for listener in self._demand_listeners:
            listener(self, lenders)

    def _notify_job_demand(
        self, alloc: JobAllocation, extra: Iterable[int] = ()
    ) -> None:
        """All of ``alloc``'s lenders (plus ``extra``) may change demand.

        A job's ``remote_fraction`` depends on its *total* allocation, so
        any resize dirties every one of its lenders.  Listeners get one
        sorted, de-duplicated lender list per call — for a
        :meth:`resize`, one notification however many nodes it touched.
        """
        if not self._demand_listeners:
            return
        dirty = set(alloc.lender_ids())
        dirty.update(extra)
        self._notify_demand(sorted(dirty))

    # ------------------------------------------------------------------
    # Incremental ledger maintenance (every mutation funnels through here)
    # ------------------------------------------------------------------
    def _touch_local_many(self, nodes: np.ndarray, deltas: np.ndarray) -> None:
        """Local-column write funnel for a batch (``nodes`` must be unique)."""
        if self._cow is not None:
            self._cow.touch_many(nodes)
        self.local_used_mb[nodes] += deltas
        self._free_local[nodes] -= deltas
        self.local_used_total += int(deltas.sum())

    def _touch_lent_many(self, nodes: np.ndarray, deltas: np.ndarray) -> None:
        """Lent-column write funnel for a batch (``nodes`` must be unique).

        The only place an armed copy-on-write store learns of lenders:
        every write to ``lender_jobs[L]`` follows a call whose ``nodes``
        hold ``L``.

        Net-equivalent to per-node touches, ``deltas`` being each node's
        net change.  Lending need not be monotone across the steps a net
        change sums (a :meth:`resize` may return memory to a lender and
        then borrow from it again), so a node may cross the memory-node
        threshold and come back; comparing each node's final flag with
        the stored one keeps the counts exact.
        """
        if self._cow is not None:
            self._cow.touch_lent(nodes)
        self.lent_mb[nodes] += deltas
        self._free_local[nodes] -= deltas
        self.lent_total += int(deltas.sum())
        self._reflag_memory_nodes(nodes)

    def _reflag_memory_nodes(self, nodes: np.ndarray) -> None:
        """Re-derive the memory-node flag of ``nodes`` (unique) after their
        lent or capacity column changed; the counts follow each flip."""
        new_mem = self.lent_mb[nodes] * 2 > self.capacity_mb[nodes]
        flipped = new_mem != self._memnode[nodes]
        if flipped.any():
            flip_nodes = nodes[flipped]
            now_mem = new_mem[flipped]
            self._memnode[flip_nodes] = now_mem
            self.memory_node_count += int(now_mem.sum()) - int((~now_mem).sum())
            idle = ~self.busy[flip_nodes]
            self.startable_count += int((idle & ~now_mem).sum())
            self.startable_count -= int((idle & now_mem).sum())

    # ------------------------------------------------------------------
    # Whole-allocation apply / release
    # ------------------------------------------------------------------
    def apply(self, jid: int, alloc: JobAllocation) -> None:
        """Commit ``alloc`` for job ``jid``, updating every ledger."""
        if jid in self.allocations:
            raise AllocationError(f"job {jid} already has an allocation")
        nodes_arr = np.asarray(alloc.nodes, dtype=np.int64)
        node_set = frozenset(alloc.nodes)
        # Validate before mutating anything (vectorised happy path; the
        # scalar loops only re-run to name the offending node).
        if self.busy[nodes_arr].any():
            for node in alloc.nodes:
                if self.busy[node]:
                    raise AllocationError(f"node {node} is busy (job {jid})")
        free = self.free_local()
        local_nodes = local_mbs = None
        if alloc.local_mb:
            k = len(alloc.local_mb)
            local_nodes = np.fromiter(alloc.local_mb.keys(), np.int64, k)
            local_mbs = np.fromiter(alloc.local_mb.values(), np.int64, k)
            if (
                (local_mbs < 0).any()
                or not node_set.issuperset(alloc.local_mb)
                or (local_mbs > free[local_nodes]).any()
            ):
                for node, mb in alloc.local_mb.items():
                    if mb < 0 or node not in node_set:
                        raise AllocationError(
                            f"bad local allocation {mb}MB on node {node}"
                        )
                    if mb > free[node]:
                        raise AllocationError(
                            f"node {node} has {free[node]}MB free, "
                            f"need {mb}MB (job {jid})"
                        )
        # One pass over the remote maps validates them and totals them per
        # compute node and per lender, the lenders in first-appearance
        # order (that of ``alloc.lenders()``); both become sealed caches.
        remote_on: Dict[int, int] = {}
        borrow_totals: Dict[int, int] = {}
        for node, lender_map in alloc.remote_mb.items():
            if node not in node_set:
                raise AllocationError(f"remote map for non-compute node {node}")
            if not lender_map:
                raise AllocationError(f"empty remote map on node {node}")
            held = 0
            for lender, mb in lender_map.items():
                if mb <= 0:
                    raise AllocationError(f"non-positive borrow {mb}MB from {lender}")
                if lender == node:
                    raise AllocationError(
                        f"node {node} cannot lend remote memory to itself"
                    )
                borrow_totals[lender] = borrow_totals.get(lender, 0) + mb
                held += mb
            remote_on[node] = held
        for lender, mb in borrow_totals.items():
            # A lender that is also a compute node of this job must cover
            # both its planned local allocation and the lent memory.
            lendable = int(free[lender]) - alloc.local_mb.get(lender, 0)
            if mb > lendable:
                raise AllocationError(
                    f"lender {lender} has {lendable}MB lendable, need {mb}MB"
                )
        # Commit (columnar bulk writes; node lists are unique by
        # construction so fancy-indexed updates are exact).
        if self._cow is not None:
            self._cow.touch_many(nodes_arr)
        self.busy[nodes_arr] = True
        self.job_on_node[nodes_arr] = jid
        self.busy_count += len(nodes_arr)
        self.busy_large_count += int(self.is_large[nodes_arr].sum())
        self.startable_count -= int((~self._memnode[nodes_arr]).sum())
        if local_nodes is not None:
            self._touch_local_many(local_nodes, local_mbs)
        if borrow_totals:
            k = len(borrow_totals)
            self._touch_lent_many(
                np.fromiter(borrow_totals.keys(), np.int64, k),
                np.fromiter(borrow_totals.values(), np.int64, k),
            )
            for lender, mb in borrow_totals.items():
                self.lender_jobs[lender][jid] = (
                    self.lender_jobs[lender].get(jid, 0) + mb
                )
            k = len(remote_on)
            self.remote_held_mb[np.fromiter(remote_on.keys(), np.int64, k)] += (
                np.fromiter(remote_on.values(), np.int64, k))
        self.allocations[jid] = alloc
        alloc._seal(nodes_arr, node_set, remote_on, borrow_totals)
        self._notify_demand(list(borrow_totals))
        if self._prov_tap is not None:
            self._prov_tap("apply", jid, alloc)

    def release(self, jid: int) -> JobAllocation:
        """Release all resources of job ``jid`` and return its allocation."""
        alloc = self.allocations.pop(jid, None)
        if alloc is None:
            raise AllocationError(f"job {jid} has no allocation to release")
        nodes_arr = alloc.nodes_array()
        if self._cow is not None:
            self._cow.touch_many(nodes_arr)
        self.busy[nodes_arr] = False
        self.job_on_node[nodes_arr] = -1
        self.busy_count -= len(nodes_arr)
        self.busy_large_count -= int(self.is_large[nodes_arr].sum())
        self.startable_count += int((~self._memnode[nodes_arr]).sum())
        if alloc.local_mb:
            k = len(alloc.local_mb)
            self._touch_local_many(
                np.fromiter(alloc.local_mb.keys(), np.int64, k),
                -np.fromiter(alloc.local_mb.values(), np.int64, k),
            )
        released_lenders: List[int] = []
        if alloc.remote_mb:
            lender_totals = alloc._lender_mb
            k = len(lender_totals)
            self._touch_lent_many(
                np.fromiter(lender_totals.keys(), np.int64, k),
                -np.fromiter(lender_totals.values(), np.int64, k),
            )
            for lender, mb in lender_totals.items():
                rec = self.lender_jobs[lender]
                rec[jid] -= mb
                if rec[jid] <= 0:
                    del rec[jid]
            released_lenders = list(lender_totals)
            remote_on = alloc._remote_on
            k = len(remote_on)
            self.remote_held_mb[np.fromiter(remote_on.keys(), np.int64, k)] -= (
                np.fromiter(remote_on.values(), np.int64, k))
        self._notify_demand(released_lenders)
        if self._prov_tap is not None:
            self._prov_tap("release", jid, alloc)
        return alloc

    # ------------------------------------------------------------------
    # Incremental resizing (dynamic policy)
    # ------------------------------------------------------------------
    def resize(self, jid: int, nodes: Sequence[int], deltas: Sequence[int],
               borrows: Sequence[Tuple[int, int, int]] = (),
               alloc: Optional[JobAllocation] = None) -> None:
        """Resize job ``jid`` in one validated columnar write.

        ``deltas`` grow (``> 0``) or shrink (``< 0``) the local DRAM on
        ``nodes``, distinct compute nodes of the job.  ``borrows`` is an
        ordered list of ``(node, lender, mb)`` borrow changes: ``mb > 0``
        borrows from ``lender`` on behalf of compute node ``node``,
        ``mb < 0`` returns.  The result — ledgers, aggregates, allocation
        maps with their insertion orders and ``lender_jobs`` — is that of
        applying each local delta and then each borrow step on its own,
        in order (the per-step writes of ``tests/reference_orders.py``);
        its one demand notification is the sorted union of theirs.

        The net effect is validated before anything is written: every
        node is a compute node of the job and every delta non-zero, no
        node lends to itself, no step returns more than its (node,
        lender) pair holds at that step, and every touched node ends
        with free DRAM ``>= 0``.
        """
        if alloc is None:
            alloc = self.allocations.get(jid)
            if alloc is None:
                raise AllocationError(f"job {jid} is not allocated")
        nodes = np.asarray(nodes, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        node_list = nodes.tolist()
        delta_list = deltas.tolist()
        n = len(node_list)
        if len(delta_list) != n or len(set(node_list)) != n:
            raise AllocationError(
                f"resize needs distinct nodes, one delta each: "
                f"{node_list} {delta_list}"
            )
        if not n and not borrows:
            return
        node_set = alloc._node_set
        local = alloc.local_mb
        new_local = [local.get(node, 0) + delta
                     for node, delta in zip(node_list, delta_list)]
        if (not node_set.issuperset(node_list) or 0 in delta_list
                or (n and min(new_local) < 0)):
            for node, delta, mb in zip(node_list, delta_list, new_local):
                if node not in node_set:
                    raise AllocationError(
                        f"node {node} is not a compute node of job {jid}"
                    )
                if delta == 0 or mb < 0:
                    raise AllocationError(
                        f"resize {delta}MB invalid; job {jid} holds "
                        f"{local.get(node, 0)}MB on {node}"
                    )
        # Net per-lender and per-holder deltas; each (node, lender) pair
        # is replayed so no step returns more than the pair then holds.
        lent: Dict[int, int] = {}
        held: Dict[int, int] = {}
        pairs: Dict[Tuple[int, int], int] = {}
        returned: Set[int] = set()
        remote = alloc.remote_mb
        for node, lender, mb in borrows:
            pair = (node, lender)
            have = pairs.get(pair)
            if have is None:
                have = remote.get(node, {}).get(lender, 0)
            if (node not in node_set or lender == node or mb == 0
                    or have + mb < 0):
                raise AllocationError(
                    f"resize borrow ({node}, {lender}, {mb}MB) invalid for "
                    f"job {jid}; the pair holds {have}MB"
                )
            pairs[pair] = have + mb
            lent[lender] = lent.get(lender, 0) + mb
            held[node] = held.get(node, 0) + mb
            if mb < 0:
                returned.add(lender)
        if lent:
            taken = dict(zip(node_list, delta_list))
            for lender, mb in lent.items():
                taken[lender] = taken.get(lender, 0) + mb
            check_nodes = np.fromiter(taken.keys(), np.int64, len(taken))
            check_mb = np.fromiter(taken.values(), np.int64, len(taken))
        else:
            check_nodes, check_mb = nodes, deltas
        over = np.flatnonzero(check_mb > self._free_local[check_nodes])
        if len(over):
            node = int(check_nodes[over[0]])
            raise AllocationError(
                f"node {node}: {int(self._free_local[node])}MB free, "
                f"need {int(check_mb[over[0]])}MB"
            )
        # Commit: one write per column, then the dict replays in order.
        if n:
            self._touch_local_many(nodes, deltas)
            local.update(zip(node_list, new_local))
            alloc._bump_local(sum(delta_list))
        if borrows:
            k = len(lent)
            self._touch_lent_many(np.fromiter(lent.keys(), np.int64, k),
                                  np.fromiter(lent.values(), np.int64, k))
            k = len(held)
            held_nodes = np.fromiter(held.keys(), np.int64, k)
            if self._cow is not None:
                self._cow.touch_many(held_nodes)
            self.remote_held_mb[held_nodes] += np.fromiter(
                held.values(), np.int64, k)
            lender_jobs = self.lender_jobs
            for node, lender, mb in borrows:
                rec = lender_jobs[lender]
                left = rec.get(jid, 0) + mb
                if left > 0:
                    rec[jid] = left
                else:
                    del rec[jid]
                node_map = remote.get(node)
                if node_map is None:
                    node_map = remote[node] = {}
                left = node_map.get(lender, 0) + mb
                if left:
                    node_map[lender] = left
                else:
                    del node_map[lender]
                    if not node_map:
                        del remote[node]
                alloc._bump_remote(node, lender, mb)
        # Returned lenders may have left the job's lender set.
        self._notify_job_demand(alloc, extra=returned)

    # ------------------------------------------------------------------
    # One-step resizes.  No simulation calls these; they stay (like the
    # zero ``free_log_overflows`` and ``MemoryPool.free_index`` /
    # ``bestfit_index``) because ``perfbench/spans.py`` wraps or reads
    # them by name (ROADMAP item 8).  The per-step reference that
    # ``resize`` is tested against is ``tests/reference_orders.py``.
    # ------------------------------------------------------------------
    def grow_local(self, jid: int, node: int, mb: int,
                   alloc: Optional[JobAllocation] = None) -> None:
        """Give job ``jid`` ``mb`` more local DRAM on ``node``."""
        if mb <= 0:
            raise AllocationError(f"grow_local needs positive MB, got {mb}")
        self.resize(jid, [node], [mb], alloc=alloc)

    def shrink_local(self, jid: int, node: int, mb: int,
                     alloc: Optional[JobAllocation] = None) -> None:
        """Take ``mb`` of local DRAM on ``node`` back from job ``jid``."""
        if mb <= 0:
            raise AllocationError(f"shrink_local needs positive MB, got {mb}")
        self.resize(jid, [node], [-mb], alloc=alloc)

    def add_remote(self, jid: int, node: int, lender: int, mb: int,
                   alloc: Optional[JobAllocation] = None) -> None:
        """Borrow ``mb`` from ``lender`` on behalf of compute node ``node``."""
        if mb <= 0:
            raise AllocationError(f"add_remote needs positive MB, got {mb}")
        self.resize(jid, (), (), [(node, lender, mb)], alloc=alloc)

    def remove_remote(self, jid: int, node: int, lender: int, mb: int,
                      alloc: Optional[JobAllocation] = None) -> None:
        """Return ``mb`` borrowed from ``lender`` for compute node ``node``."""
        if mb <= 0:
            raise AllocationError(f"remove_remote needs positive MB, got {mb}")
        self.resize(jid, (), (), [(node, lender, -mb)], alloc=alloc)

    # ------------------------------------------------------------------
    # Capacity expansion (what-if: attach disaggregated memory modules)
    # ------------------------------------------------------------------
    def expand_capacity(self, nodes: Sequence[int], extra_mb: int) -> None:
        """Attach ``extra_mb`` of memory to each node in ``nodes``.

        Models plugging additional disaggregated memory into the fabric
        behind those nodes (the ``add-memnodes`` what-if perturbation).
        Free DRAM and the memory-node flags stay coherent; a node that
        had lent more than half its *old* capacity may stop being a
        memory node.
        """
        if extra_mb <= 0:
            raise AllocationError(
                f"expand_capacity needs positive MB, got {extra_mb}"
            )
        nodes_arr = np.unique(np.asarray(list(nodes), dtype=np.int64))
        if len(nodes_arr) == 0:
            return
        if (nodes_arr < 0).any() or (nodes_arr >= self.n_nodes).any():
            raise AllocationError(f"expand_capacity: node out of range: {nodes}")
        if self._cow is not None:
            self._cow.touch_many(nodes_arr)
        self.capacity_mb[nodes_arr] += extra_mb
        self._free_local[nodes_arr] += extra_mb
        self._total_capacity += int(extra_mb) * len(nodes_arr)
        self._reflag_memory_nodes(nodes_arr)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def recompute_aggregates(self) -> Dict[str, int]:
        """Brute-force recomputation of every incremental aggregate.

        The returned values are what the running aggregates *should* be;
        :meth:`check_invariants` and the property tests compare them
        against the incrementally maintained attributes.
        """
        memnode = self.lent_mb * 2 > self.capacity_mb
        return {
            "busy_count": int(self.busy.sum()),
            "busy_large_count": int((self.busy & self.is_large).sum()),
            "local_used_total": int(self.local_used_mb.sum()),
            "lent_total": int(self.lent_mb.sum()),
            "memory_node_count": int(memnode.sum()),
            "startable_count": int(((~self.busy) & ~memnode).sum()),
        }

    def _check_aggregates(self) -> None:
        """Cross-check the incremental aggregates against brute force."""
        brute = self.recompute_aggregates()
        for name, want in brute.items():
            have = getattr(self, name)
            if have != want:
                raise AllocationError(
                    f"incremental aggregate {name}={have} != recomputed {want}"
                )
        try:
            self.columns.validate()
        except ValueError as exc:
            raise AllocationError(str(exc)) from exc

    def check_invariants(self) -> None:
        """Raise :class:`AllocationError` if any ledger invariant is broken."""
        if (self.local_used_mb < 0).any() or (self.lent_mb < 0).any():
            raise AllocationError("negative ledger entry")
        if (self.local_used_mb + self.lent_mb > self.capacity_mb).any():
            raise AllocationError("node over-committed beyond capacity")
        # Cross-check allocations against ledgers.
        local = np.zeros(self.n_nodes, dtype=np.int64)
        lent = np.zeros(self.n_nodes, dtype=np.int64)
        held = np.zeros(self.n_nodes, dtype=np.int64)
        busy_nodes: set[int] = set()
        # Per (lender, job) borrowed MB rebuilt from the allocation records,
        # compared exactly against ``lender_jobs`` below.
        expected_lender_jobs: Dict[int, Dict[int, int]] = {}
        for jid, alloc in self.allocations.items():
            try:
                alloc.check_conservation()
                alloc.check_seal()
            except ValueError as exc:
                raise AllocationError(f"job {jid}: {exc}") from exc
            for node in alloc.nodes:
                if node in busy_nodes:
                    raise AllocationError(f"node {node} allocated to two jobs")
                busy_nodes.add(node)
                if self.job_on_node[node] != jid:
                    raise AllocationError(f"job_on_node[{node}] != {jid}")
            for node, mb in alloc.local_mb.items():
                local[node] += mb
            for node, lender_map in alloc.remote_mb.items():
                for lender, mb in lender_map.items():
                    lent[lender] += mb
                    held[node] += mb
                    per_lender = expected_lender_jobs.setdefault(lender, {})
                    per_lender[jid] = per_lender.get(jid, 0) + mb
        if not np.array_equal(local, self.local_used_mb):
            raise AllocationError("local_used ledger out of sync with allocations")
        if not np.array_equal(lent, self.lent_mb):
            raise AllocationError("lent ledger out of sync with allocations")
        if not np.array_equal(held, self.remote_held_mb):
            raise AllocationError(
                "remote_held column out of sync with allocations"
            )
        if busy_nodes != set(np.flatnonzero(self.busy)):
            raise AllocationError("busy mask out of sync with allocations")
        # Every map equals its rebuilt one exactly when the lenders with
        # borrowers match and no other map is non-empty; the full scan
        # runs only to name the first map that differs.
        lender_jobs = self.lender_jobs
        if (len(lender_jobs) - lender_jobs.count({})
                != len(expected_lender_jobs)
                or any(lender_jobs[lender] != expected
                       for lender, expected in expected_lender_jobs.items())):
            for lender, rec in enumerate(lender_jobs):
                expected = expected_lender_jobs.get(lender, {})
                if rec != expected:
                    raise AllocationError(
                        f"lender_jobs[{lender}] {rec} != {expected} rebuilt "
                        "from the live allocations"
                    )
        self._check_aggregates()
