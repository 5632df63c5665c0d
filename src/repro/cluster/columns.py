"""Struct-of-arrays storage for per-node cluster state.

:class:`NodeColumns` owns one numpy array per node attribute — the
*columnar core* the rest of :mod:`repro.cluster` is built on.  The
one write path is :class:`~repro.cluster.cluster.Cluster`'s mutators
(``apply``/``release``/``resize``, and ``expand_capacity`` for what-if),
which keep the O(1) aggregates and demand listeners coherent; this
module only provides the storage layout plus whole-state operations
that are natural on arrays:

* :class:`ColumnPageStore` — the page-granular copy-on-write store
  behind what-if forks (:mod:`repro.whatif`).  Its rollback writes
  **in place**, so every alias and read-only view held by ``Cluster``
  stays valid across it.
* :meth:`NodeColumns.content_hash` — a stable digest of the per-node
  state (the fork cache's dedupe key).
* :meth:`NodeColumns.validate` — brute-force coherence check of the
  derived columns (``free_local``, ``memnode``) against the primary
  ledgers, used by ``Cluster.check_invariants``.

Array layout (all length ``n_nodes``, fixed dtypes):

==================  =========  ===============================================
column              dtype      meaning
==================  =========  ===============================================
``capacity_mb``     int64      DRAM capacity (only ``expand_capacity`` grows it)
``is_large``        bool       large-capacity node class (immutable)
``local_used_mb``   int64      DRAM used by the job running *on* the node
``lent_mb``         int64      DRAM lent to jobs on *other* nodes
``remote_held_mb``  int64      DRAM the job on this node borrows from others
``busy``            bool       a job currently runs on the node
``job_on_node``     int64      that job's id (-1 when idle)
``free_local``      int64      derived: ``capacity - local_used - lent``
``memnode``         bool       derived: ``lent * 2 > capacity``
==================  =========  ===============================================
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

from ..core.state import ForkState

__all__ = ["NodeColumns", "ColumnPageStore", "COW_COLUMNS"]

#: Columns tracked by the copy-on-write page store, in a fixed order:
#: every mutable column, plus ``capacity_mb`` — immutable under normal
#: operation, but the ``add-memnodes`` what-if perturbation boosts it,
#: so forks must be able to roll it back too (``is_large`` never
#: changes).
COW_COLUMNS = (
    "local_used_mb",
    "lent_mb",
    "remote_held_mb",
    "busy",
    "job_on_node",
    "free_local",
    "memnode",
    "capacity_mb",
)

#: Nodes per COW page.  Small enough that a ~100-node perturbation on a
#: 16384-node cluster dirties only a few percent of the pages, large
#: enough that page bookkeeping stays off the mutator hot path.
PAGE_NODES = 64


class NodeColumns:
    """Parallel per-node arrays: the cluster's columnar node store."""

    __slots__ = (
        "n_nodes",
        "capacity_mb",
        "is_large",
        "local_used_mb",
        "lent_mb",
        "remote_held_mb",
        "busy",
        "job_on_node",
        "free_local",
        "memnode",
    )

    #: The arrays are bound once; their contents roll back page by page
    #: through :class:`ColumnPageStore`, not through a capture.
    fork_state = ForkState(fixed=__slots__)

    def __init__(self, capacity_mb: np.ndarray, is_large: np.ndarray):
        n = len(capacity_mb)
        if len(is_large) != n:
            raise ValueError(
                f"column length mismatch: capacity_mb has {n} entries, "
                f"is_large has {len(is_large)}"
            )
        self.n_nodes = n
        self.capacity_mb = np.ascontiguousarray(capacity_mb, dtype=np.int64)
        self.is_large = np.ascontiguousarray(is_large, dtype=bool)
        self.local_used_mb = np.zeros(n, dtype=np.int64)
        self.lent_mb = np.zeros(n, dtype=np.int64)
        self.remote_held_mb = np.zeros(n, dtype=np.int64)
        self.busy = np.zeros(n, dtype=bool)
        self.job_on_node = np.full(n, -1, dtype=np.int64)
        self.free_local = self.capacity_mb.copy()
        self.memnode = np.zeros(n, dtype=bool)

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    def content_hash(self) -> str:
        """Stable hex digest of the full per-node state.

        Reads the column bytes without materialising copies; identical
        states (same node count, capacities and ledgers) hash equal, so
        snapshot consumers can dedupe.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(str(self.n_nodes).encode())
        h.update(self.is_large.tobytes())
        for name in COW_COLUMNS:
            h.update(getattr(self, name).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Brute-force coherence of the derived columns
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` if a derived column drifted from the ledgers."""
        fresh_free = self.capacity_mb - self.local_used_mb - self.lent_mb
        if not np.array_equal(self.free_local, fresh_free):
            raise ValueError("free_local column out of sync with the ledgers")
        if not np.array_equal(self.memnode, self.lent_mb * 2 > self.capacity_mb):
            raise ValueError("memnode column out of sync with lent_mb")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"NodeColumns(n={self.n_nodes}, busy={int(self.busy.sum())}, "
            f"local={int(self.local_used_mb.sum())}MB, "
            f"lent={int(self.lent_mb.sum())}MB)"
        )


class ColumnPageStore:
    """Copy-on-write page store over a :class:`NodeColumns` instance.

    The store divides the node axis into fixed :data:`PAGE_NODES`-sized
    pages.  While armed (``Cluster._cow`` points at it), every columnar
    write first calls :meth:`touch_many` on the nodes it is about to
    modify; the *first* touch of a page since the last
    :meth:`rollback` copies that page's slice of every
    :data:`COW_COLUMNS` column into the store.  :meth:`rollback` then
    writes only the dirtied pages back — O(changed pages), not
    O(n_nodes) — leaving the live arrays byte-identical to the captured
    state while every alias and view stays valid.

    Pages are cached across rollbacks: a page copied once is pristine
    forever (rollback restores the live array *from* it), so repeated
    forks from the same snapshot never re-copy, and the store's memory
    is bounded by the union of pages ever dirtied (worst case one full
    columnar copy).

    ``pages_copied`` / ``bytes_copied`` account actual allocations for
    the COW-memory benchmark; :meth:`full_copy_bytes` is the comparator.
    """

    __slots__ = (
        "columns",
        "page_nodes",
        "n_pages",
        "_pages",
        "_dirty",
        "pages_copied",
        "bytes_copied",
    )

    def __init__(self, columns: NodeColumns, page_nodes: int = PAGE_NODES):
        if page_nodes <= 0:
            raise ValueError(f"page_nodes must be positive, got {page_nodes}")
        self.columns = columns
        self.page_nodes = page_nodes
        self.n_pages = -(-columns.n_nodes // page_nodes)
        self._pages: Dict[int, tuple] = {}
        self._dirty = np.zeros(self.n_pages, dtype=bool)
        self.pages_copied = 0
        self.bytes_copied = 0

    # -- capture -------------------------------------------------------
    def _copy_page(self, page: int) -> None:
        lo = page * self.page_nodes
        hi = min(lo + self.page_nodes, self.columns.n_nodes)
        slices = tuple(
            getattr(self.columns, name)[lo:hi].copy() for name in COW_COLUMNS
        )
        self._pages[page] = slices
        self.pages_copied += 1
        self.bytes_copied += sum(s.nbytes for s in slices)

    def touch_many(self, nodes) -> None:
        """Preserve the pages holding ``nodes`` before they are written."""
        pages = np.unique(np.asarray(nodes, dtype=np.int64) // self.page_nodes)
        for page in pages:
            p = int(page)
            if self._dirty[p]:
                continue
            if p not in self._pages:
                self._copy_page(p)
            self._dirty[p] = True

    # -- restore -------------------------------------------------------
    def rollback(self) -> int:
        """Restore all pages dirtied since capture/last rollback.

        Returns the number of pages written back.  The live arrays are
        written in place, so views and aliases survive.
        """
        dirty = np.flatnonzero(self._dirty)
        for page in dirty:
            p = int(page)
            lo = p * self.page_nodes
            hi = min(lo + self.page_nodes, self.columns.n_nodes)
            slices = self._pages[p]
            for name, saved in zip(COW_COLUMNS, slices):
                getattr(self.columns, name)[lo:hi] = saved
        self._dirty[:] = False
        return int(len(dirty))

    def full_copy_bytes(self) -> int:
        """Bytes a full columnar snapshot of the tracked columns costs."""
        return sum(getattr(self.columns, name).nbytes for name in COW_COLUMNS)
