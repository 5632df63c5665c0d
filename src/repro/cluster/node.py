"""Thin, index-backed node view over the cluster's columnar store.

The authoritative state lives in the parallel numpy arrays of
:class:`~repro.cluster.columns.NodeColumns` (owned by
:class:`~repro.cluster.cluster.Cluster`); :class:`Node` holds only a
cluster reference and an index, so views are free to create and always
*live* — a column write is immediately visible through every view of
that node, and a write through a view lands in the column.

Reads index the columns directly.  Writes (the ``local_used_mb`` /
``lent_mb`` setters) funnel through the cluster's sanctioned mutators
(:meth:`~repro.cluster.cluster.Cluster.set_local_used` /
:meth:`~repro.cluster.cluster.Cluster.set_lent`), which keep the derived
columns, O(1) aggregates and demand listeners coherent.
They bypass per-job allocation records, so they are for scenario setup
and tests on standalone clusters — allocation-tracked state must go
through ``apply``/``release``/``grow_local``/... as before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster


class Node:
    """Live view of one node's row across the cluster columns."""

    __slots__ = ("cluster", "index")

    def __init__(self, cluster: "Cluster", index: int):
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "index", int(index))

    def __setattr__(self, name, value):
        # The view itself is immutable (like the frozen dataclass it
        # replaces); state writes go through the property setters below.
        if name in Node.__slots__:
            raise AttributeError(f"Node.{name} is read-only")
        super().__setattr__(name, value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Node)
            and self.cluster is other.cluster
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.cluster), self.index))

    # ------------------------------------------------------------------
    # Column reads
    # ------------------------------------------------------------------
    @property
    def capacity_mb(self) -> int:
        return int(self.cluster.capacity_mb[self.index])

    @property
    def local_used_mb(self) -> int:
        return int(self.cluster.local_used_mb[self.index])

    @local_used_mb.setter
    def local_used_mb(self, mb: int) -> None:
        self.cluster.set_local_used(self.index, mb)

    @property
    def lent_mb(self) -> int:
        return int(self.cluster.lent_mb[self.index])

    @lent_mb.setter
    def lent_mb(self, mb: int) -> None:
        self.cluster.set_lent(self.index, mb)

    @property
    def remote_held_mb(self) -> int:
        """MB the job running on this node borrows from other nodes."""
        return int(self.cluster.remote_held_mb[self.index])

    @property
    def free_local_mb(self) -> int:
        """Physically free DRAM on this node (not used locally, not lent)."""
        return int(self.cluster.free_local()[self.index])

    @property
    def busy(self) -> bool:
        return bool(self.cluster.busy[self.index])

    @property
    def running_job(self) -> Optional[int]:
        jid = int(self.cluster.job_on_node[self.index])
        return None if jid < 0 else jid

    @property
    def is_memory_node(self) -> bool:
        """True when the node has lent more than half its capacity.

        Per the static policy of Zacarias et al. (paper §2.1), such a node
        "can lend memory but not run new jobs" until lending drops again.
        """
        return bool(self.cluster.is_memory_node()[self.index])

    @property
    def is_large(self) -> bool:
        return bool(self.cluster.is_large[self.index])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Node({self.index}, cap={self.capacity_mb}MB, "
            f"local={self.local_used_mb}, lent={self.lent_mb}, "
            f"busy={self.busy}, memnode={self.is_memory_node})"
        )
