"""Copy-on-write simulation snapshots.

:class:`SimSnapshot` freezes the *complete* deterministic state of a
paused simulation such that :meth:`~SimSnapshot.restore` rewinds the
**same live object graph** back to the captured instant in O(changed
state).  What "complete" means is declared, not remembered: every class
that holds run state lists its fields in a ``fork_state`` declaration
(:mod:`repro.core.state`), and a snapshot is one walk over those
declarations from the :class:`~repro.scheduler.simulator.SimulationHandle`
— engine clock and event queue, every job's runtime fields, the
cluster's python-side ledgers and allocations, the memory-pool indexes,
policy state (including RNG streams), the contention model's demand
cache, telemetry/provenance/blame, and the result accumulators.

Design: *rollback in place*, not *clone*.  A fork runs forward on the
live objects; restoring writes the captured values back into those same
objects, so every cross-reference (controller → cluster → columns →
views; events → jobs) stays valid without any identity-remapping pass.
This is what makes forked replays byte-identical to fresh runs: the
object graph after a rollback is indistinguishable — field by field —
from the graph of a fresh simulation paused at the same instant.

Cost model: the columnar arrays (the bulk at scale) and the per-lender
borrower maps are *not* copied; instead the cluster's copy-on-write
store is armed and preserves only the pages and lender maps the fork
actually dirties.  Restore writes back exactly those plus the captured
python state.
"""

from __future__ import annotations

from ..cluster.columns import ColumnPageStore
from ..core.state import capture, restore
from ..scheduler.simulator import SimulationHandle

__all__ = ["SimSnapshot"]


class SimSnapshot:
    """A reusable frozen capture of one paused simulation.

    Create with :meth:`capture`; rewind the same handle with
    :meth:`restore` as many times as needed (the fork workflow restores
    once per what-if query).  A snapshot is bound to the handle it was
    captured from.
    """

    def __init__(self, handle: SimulationHandle, cow: ColumnPageStore):
        self.handle = handle
        self._cow = cow
        #: engine clock at capture (the fork point)
        self.now: float = handle.engine.now
        #: events the run had processed by the fork point (a suffix
        #: replays the rest of its run's ``events_processed``)
        self.events_processed: int = handle.engine.events_processed
        self._state = capture(handle)

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, handle: SimulationHandle) -> "SimSnapshot":
        """Freeze ``handle``'s current state.

        Arms (re-arming fresh) the cluster's copy-on-write page store:
        one snapshot is live per simulation at a time — capturing a new
        snapshot invalidates any earlier one for the same handle.  The
        event queue is compacted first, so forks never inherit
        cancelled entries.
        """
        cluster = handle.cluster
        # Arm COW fresh so "pristine" pages mean "state at this capture".
        # Nothing is copied until a fork writes.
        cluster.disarm_cow()
        cow = cluster.arm_cow()
        handle.engine.queue.compact()
        return cls(handle, cow)

    def restore(self) -> int:
        """Rewind the handle to the captured instant.

        Returns the number of columnar pages rolled back (with the
        dirtied lender maps, the O(changed) part).  Safe to call
        repeatedly; each call leaves the simulation exactly at the fork
        point, ready to run a (new) suffix.
        """
        pages = self._cow.rollback()
        restore(self.handle, self._state)
        return pages

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimSnapshot(t={self.now:.1f}s)"
