"""Per-job memory allocation records.

A running job holds a :class:`JobAllocation`: the set of compute nodes it
occupies, how much memory each compute node serves locally, and — for
disaggregated policies — how much it borrows from which lender nodes on
behalf of each compute node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.state import ForkState


@dataclass
class JobAllocation:
    """Memory layout of one running job.

    Attributes
    ----------
    nodes:
        Compute nodes (indices) the job runs on; CPUs are exclusive.
    local_mb:
        Per compute node, memory served from that node's own DRAM.
    remote_mb:
        Per compute node, a map ``lender node -> MB`` borrowed from the
        disaggregated pool on that lender.

    An allocation starts *unsealed*: policies build the maps freely and
    every total is computed by summation.  :meth:`repro.cluster.Cluster.apply`
    *seals* the record — the totals become cached integers that the
    cluster's mutators keep current via :meth:`_bump_local` /
    :meth:`_bump_remote` — so the contention model's per-event reads
    (``total_remote``, ``remote_fraction``, ``total_on``) are O(1)
    instead of O(nodes x lenders).  Mutating the maps of a sealed
    allocation behind the cluster's back desyncs the caches;
    ``Cluster.check_invariants`` cross-checks them against brute-force
    recomputation.
    """

    nodes: List[int] = field(default_factory=list)
    local_mb: Dict[int, int] = field(default_factory=dict)
    remote_mb: Dict[int, Dict[int, int]] = field(default_factory=dict)
    #: sealed caches (``None`` while unsealed), maintained by ``Cluster``
    _total_local: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _total_remote: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )
    _remote_on: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: per-lender borrowed totals (values exact; key *order* is
    #: maintenance order, see :meth:`lender_ids`)
    _lender_mb: Optional[Dict[int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _node_set: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _nodes_arr: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :meth:`lenders` as ``(ids, mb)`` int64 arrays, same order (``None``
    #: after a borrow change until the next :meth:`lender_arrays` read)
    _lender_arrs: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Monitor reading (MB) the dynamic policy last sized every node
    #: to (``None`` = unknown).  Every cluster mutation of the record
    #: clears it through :meth:`_bump_local` / :meth:`_bump_remote`, so
    #: while it is set each node still holds that reading's demand.
    sized_for_mb: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    #: A rollback restores the record in place, sealed caches and resize
    #: mark included: the cached ``_lender_mb`` key order is maintenance
    #: order, which ``Cluster.release`` makes visible downstream, so it is
    #: copied rather than re-sealed.  ``nodes`` never changes after
    #: construction; the node set and the node and lender arrays are
    #: replaced, never written.
    fork_state = ForkState(
        values=(
            "_total_local", "_total_remote", "_node_set", "_nodes_arr",
            "_lender_arrs", "sized_for_mb",
        ),
        copies=("local_mb", "_remote_on", "_lender_mb"),
        nested=("remote_mb",),
        fixed=("nodes",),
    )

    # ------------------------------------------------------------------
    # Seal maintenance (called by Cluster only)
    # ------------------------------------------------------------------
    def _seal(self, nodes_arr: np.ndarray, node_set: FrozenSet[int],
              remote_on: Dict[int, int], lender_mb: Dict[int, int]) -> None:
        """Cache the totals; the cluster keeps them current from here on.

        ``Cluster.apply`` passes what its validation pass already built:
        the node array and set, each compute node's remote total and the
        per-lender totals in first-appearance order (the order of
        :meth:`lenders`, so they also give the cached lender arrays).
        The record takes ownership of both dicts.
        """
        self._total_local = sum(self.local_mb.values())
        self._total_remote = sum(remote_on.values())
        self._remote_on = remote_on
        self._lender_mb = lender_mb
        k = len(lender_mb)
        self._lender_arrs = (
            np.fromiter(lender_mb.keys(), np.int64, k),
            np.fromiter(lender_mb.values(), np.int64, k),
        )
        self._node_set = node_set
        self._nodes_arr = nodes_arr

    def _bump_local(self, delta: int) -> None:
        self.sized_for_mb = None
        if self._total_local is not None:
            self._total_local += delta

    def _bump_remote(self, node: int, lender: int, delta: int) -> None:
        self.sized_for_mb = None
        self._lender_arrs = None
        if self._total_remote is not None:
            self._total_remote += delta
            self._remote_on[node] = self._remote_on.get(node, 0) + delta
            if self._remote_on[node] == 0:
                del self._remote_on[node]
            self._lender_mb[lender] = self._lender_mb.get(lender, 0) + delta
            if self._lender_mb[lender] == 0:
                del self._lender_mb[lender]

    def check_seal(self) -> None:
        """Raise ``ValueError`` if the sealed caches drifted from the maps."""
        if self._total_local is None:
            return
        if self._total_local != sum(self.local_mb.values()):
            raise ValueError(
                f"sealed total_local {self._total_local} != "
                f"{sum(self.local_mb.values())}"
            )
        brute_remote = {
            node: sum(m.values()) for node, m in self.remote_mb.items() if m
        }
        cached = {n: mb for n, mb in (self._remote_on or {}).items() if mb}
        if cached != brute_remote:
            raise ValueError(f"sealed remote_on {cached} != {brute_remote}")
        if self._total_remote != sum(brute_remote.values()):
            raise ValueError(
                f"sealed total_remote {self._total_remote} != "
                f"{sum(brute_remote.values())}"
            )
        brute_lenders = dict(self.lenders())
        cached_lenders = {n: mb for n, mb in (self._lender_mb or {}).items() if mb}
        if cached_lenders != brute_lenders:
            raise ValueError(
                f"sealed lender_mb {cached_lenders} != {brute_lenders}"
            )
        if self._lender_arrs is not None:
            ids, mb = self._lender_arrs
            cached_order = list(zip(ids.tolist(), mb.tolist()))
            if cached_order != list(brute_lenders.items()):
                raise ValueError(
                    f"cached lender arrays {cached_order} != "
                    f"{list(brute_lenders.items())}"
                )
        if self._node_set is not None and self._node_set != set(self.nodes):
            raise ValueError(
                f"sealed node set {set(self._node_set)} != {set(self.nodes)}"
            )

    # ------------------------------------------------------------------
    def local_on(self, node: int) -> int:
        return self.local_mb.get(node, 0)

    def remote_on(self, node: int) -> int:
        if self._remote_on is not None:
            return self._remote_on.get(node, 0)
        return sum(self.remote_mb.get(node, {}).values())

    def total_on(self, node: int) -> int:
        return self.local_on(node) + self.remote_on(node)

    def total_local(self) -> int:
        if self._total_local is not None:
            return self._total_local
        return sum(self.local_mb.values())

    def total_remote(self) -> int:
        if self._total_remote is not None:
            return self._total_remote
        return sum(sum(m.values()) for m in self.remote_mb.values())

    def total(self) -> int:
        return self.total_local() + self.total_remote()

    def remote_fraction(self) -> float:
        """Fraction of the job's allocated memory that is remote."""
        tot = self.total()
        if tot == 0:
            return 0.0
        return self.total_remote() / tot

    def lenders(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(lender node, MB)`` aggregated over compute nodes.

        Deliberately brute-force: this is the reference order, first
        appearance across ``remote_mb``, which fixes the float summation
        order of :meth:`repro.slowdown.ContentionModel.slowdown` that the
        byte-identical campaign records depend on.  Pricing reads the
        same pairs from :meth:`lender_arrays`; order-insensitive
        consumers should use :meth:`lender_ids`, which reads the sealed
        cache in O(lenders).
        """
        agg: Dict[int, int] = {}
        for m in self.remote_mb.values():
            for lender, mb in m.items():
                agg[lender] = agg.get(lender, 0) + mb
        yield from agg.items()

    def lender_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`lenders` as ``(ids, mb)`` int64 arrays, in its order.

        A sealed record caches them (do not mutate): ``_seal`` builds
        them from ``apply``'s lender totals and a borrow change drops
        them, so the next read rebuilds them from :meth:`lenders`.  An
        unsealed record pays the aggregation on each call.
        """
        arrs = self._lender_arrs
        if arrs is None:
            agg = dict(self.lenders())
            k = len(agg)
            arrs = (np.fromiter(agg.keys(), np.int64, k),
                    np.fromiter(agg.values(), np.int64, k))
            if self._total_remote is not None:
                self._lender_arrs = arrs
        return arrs

    def lender_ids(self) -> Iterable[int]:
        """Lender node ids, **unordered** — sealed cache when available.

        The cached dict's key order is maintenance order (not the
        first-appearance order of :meth:`lenders`), so only use this
        where order cannot matter: set construction, demand-cache
        invalidation, touched-node lists that are deduped downstream.
        """
        if self._lender_mb is not None:
            return self._lender_mb.keys()
        return {lender for m in self.remote_mb.values() for lender in m}

    def has_node(self, node: int) -> bool:
        """O(1) compute-node membership (sealed); list scan otherwise."""
        if self._node_set is not None:
            return node in self._node_set
        return node in self.nodes

    def nodes_array(self) -> np.ndarray:
        """Compute nodes as an ``int64`` array for vectorised consumers.

        Sealed allocations return the cached array (do not mutate it);
        unsealed ones pay the conversion on each call.
        """
        if self._nodes_arr is not None:
            return self._nodes_arr
        return np.asarray(self.nodes, dtype=np.int64)

    def check_conservation(self) -> None:
        """Raise ``ValueError`` if the record is internally inconsistent.

        Conservation requirements mirrored by the cluster-wide ledgers
        (:meth:`repro.cluster.cluster.Cluster.check_invariants`):

        * ``local_mb`` keys are compute nodes of the job with
          non-negative amounts;
        * ``remote_mb`` keys are compute nodes, lender amounts are
          strictly positive, and a node never lends to itself;
        * a ``sized_for_mb`` mark is a non-negative reading on a sealed
          record (only sealed records route every change through
          :meth:`_bump_local` / :meth:`_bump_remote`, which clear it).
        """
        if self.sized_for_mb is not None and (
            self.sized_for_mb < 0 or self._total_local is None
        ):
            raise ValueError(
                f"resize mark {self.sized_for_mb}MB on an unsealed record "
                "or below zero"
            )
        node_set = set(self.nodes)
        for node, mb in self.local_mb.items():
            if node not in node_set:
                raise ValueError(f"local_mb entry for non-compute node {node}")
            if mb < 0:
                raise ValueError(f"negative local allocation {mb}MB on node {node}")
        for node, lender_map in self.remote_mb.items():
            if node not in node_set:
                raise ValueError(f"remote_mb entry for non-compute node {node}")
            for lender, mb in lender_map.items():
                if mb <= 0:
                    raise ValueError(
                        f"non-positive borrow {mb}MB from lender {lender}"
                    )
                if lender == node:
                    raise ValueError(f"node {node} lends remote memory to itself")

    def copy(self) -> "JobAllocation":
        return JobAllocation(
            nodes=list(self.nodes),
            local_mb=dict(self.local_mb),
            remote_mb={n: dict(m) for n, m in self.remote_mb.items()},
        )
