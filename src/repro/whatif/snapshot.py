"""Copy-on-write simulation snapshots.

:class:`SimSnapshot` freezes the *complete* deterministic state of a
paused simulation — engine clock and event queue, every job's runtime
fields, the cluster's columnar ledgers (via the page-granular
copy-on-write store, see
:class:`repro.cluster.columns.ColumnPageStore`), allocations and lender
maps, the memory-pool indexes, policy state (including RNG streams),
telemetry/provenance/blame, and the result accumulators — such that
:meth:`restore` rewinds the **same live object graph** back to the
captured instant in O(changed state).

Design: *rollback in place*, not *clone*.  A fork runs forward on the
live objects; restoring writes the captured values back into those same
objects, so every cross-reference (controller → cluster → columns →
views; events → jobs) stays valid without any identity-remapping pass.
This is what makes forked replays byte-identical to fresh runs: the
object graph after a rollback is indistinguishable — field by field —
from the graph of a fresh simulation paused at the same instant.

Cost model: capture is O(python bookkeeping) — the columnar arrays (the
bulk at scale) are *not* copied; instead the cluster's copy-on-write
store is armed and preserves only the pages the fork actually dirties.
Restore writes back exactly those pages plus the captured python state.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

from ..scheduler.simulator import SimulationHandle

__all__ = ["SimSnapshot"]

#: The mutable per-job runtime fields (see :class:`repro.jobs.Job`),
#: captured/restored positionally.
_JOB_FIELDS = (
    "state",
    "queue_time",
    "start_time",
    "finish_time",
    "first_start_time",
    "work_done",
    "slowdown",
    "restarts",
    "checkpointed_work",
    "last_progress_time",
)

class SimSnapshot:
    """A reusable frozen capture of one paused simulation.

    Create with :meth:`capture`; rewind the same handle with
    :meth:`restore` as many times as needed (the fork workflow restores
    once per what-if query).  A snapshot is bound to the handle it was
    captured from — restoring it into a different simulation raises.
    """

    def __init__(self, handle: SimulationHandle, state: dict):
        self.handle = handle
        self._state = state
        self._hash: Optional[str] = None
        #: engine clock at capture (the fork point)
        self.now: float = state["engine"][0]

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, handle: SimulationHandle) -> "SimSnapshot":
        """Freeze ``handle``'s current state.

        Arms (re-arming fresh) the cluster's copy-on-write page store:
        one snapshot is live per simulation at a time — capturing a new
        snapshot invalidates any earlier one for the same handle.
        """
        controller = handle.controller
        cluster = handle.cluster
        engine = handle.engine

        # Columnar state: arm COW fresh so "pristine" pages mean "state
        # at this capture".  Nothing is copied until a fork writes.
        cluster.disarm_cow()
        cow = cluster.arm_cow()

        queue = engine.queue
        entries = queue.snapshot_entries()  # compacts tombstones first

        state: Dict[str, object] = {
            "engine": (engine.now, engine.events_processed, engine._stopped),
            "queue": (entries, queue._seq),
            "finish_events": {
                jid: ev.seq for jid, ev in controller.finish_events.items()
            },
            "wall_events": {
                jid: ev.seq for jid, ev in controller.wall_events.items()
            },
            "jobs": dict(controller.jobs),
            "job_fields": {
                jid: tuple(getattr(job, f) for f in _JOB_FIELDS)
                for jid, job in controller.jobs.items()
            },
            "pending": (list(controller.pending._jobs),
                        controller.pending._dirty),
            "running": dict(controller.running),
            "cluster": cluster.snapshot_state(),
            "policy": controller.policy,
            "policy_state": controller.policy.snapshot_state(),
            "result": cls._capture_result(controller.result),
            "timeline": (len(controller.timeline.times),),
            "controller_scalars": (
                controller._last_account,
                controller._sched_scheduled,
                controller._mem_scheduled,
                controller._dirty,
            ),
        }
        pool = getattr(controller.policy, "pool", None)
        if pool is not None:
            state["pool"] = pool.snapshot_state()
        if controller.telemetry.enabled:
            state["telemetry"] = controller.telemetry.snapshot_state()
        snap = cls(handle, state)
        snap._cow = cow
        return snap

    @staticmethod
    def _capture_result(result) -> dict:
        return {
            "policy": result.policy,
            "n_records": len(result.records),
            "n_unrunnable": len(result.unrunnable),
            "oom_kills": result.oom_kills,
            "timeouts": result.timeouts,
            "makespan": result.makespan,
            "first_submit": result.first_submit,
            "node_busy_seconds": result.node_busy_seconds,
            "mem_allocated_mb_seconds": result.mem_allocated_mb_seconds,
            "mem_remote_mb_seconds": result.mem_remote_mb_seconds,
            "total_nodes": result.total_nodes,
            "total_capacity_mb": result.total_capacity_mb,
            "events_processed": result.events_processed,
            "meta": dict(result.meta),
        }

    # ------------------------------------------------------------------
    def restore(self) -> int:
        """Rewind the handle to the captured instant.

        Returns the number of columnar pages rolled back (the O(changed)
        part).  Safe to call repeatedly; each call leaves the simulation
        exactly at the fork point, ready to run a (new) suffix.
        """
        handle = self.handle
        controller = handle.controller
        cluster = handle.cluster
        engine = handle.engine
        state = self._state

        # 1. Columnar ledgers: write back only the dirtied pages.
        pages = self._cow.rollback()

        # 2. Engine clock + queue.
        engine.now, engine.events_processed, engine._stopped = state["engine"]
        entries, seq = state["queue"]
        by_seq = engine.queue.restore_entries(entries, seq)
        controller.finish_events = {
            jid: by_seq[s] for jid, s in state["finish_events"].items()
        }
        controller.wall_events = {
            jid: by_seq[s] for jid, s in state["wall_events"].items()
        }

        # 3. Jobs: same objects, captured field values.  Jobs added by a
        # fork (submit perturbations) drop out of the registry here.
        controller.jobs = dict(state["jobs"])
        for jid, values in state["job_fields"].items():
            job = controller.jobs[jid]
            for name, value in zip(_JOB_FIELDS, values):
                setattr(job, name, value)
        pending_jobs, pending_dirty = state["pending"]
        controller.pending._jobs = list(pending_jobs)
        controller.pending._dirty = pending_dirty
        controller.running = dict(state["running"])

        # 4. Cluster python-side ledgers (allocations, lender maps,
        # aggregates, generation log).
        cluster.restore_state(state["cluster"])

        # 5. Policy (a fork may have swapped it) and pool indexes.  The
        # contention model's demand cache was invalidated by the cluster
        # restore's listener notification; recomputation is
        # bit-identical.
        controller.policy = state["policy"]
        controller.policy.restore_state(state["policy_state"])
        pool = getattr(controller.policy, "pool", None)
        if pool is not None and "pool" in state:
            pool.restore_state(state["pool"])

        # 6. Observability.
        if "telemetry" in state:
            controller.telemetry.restore_state(state["telemetry"])

        # 7. Result accumulators + timeline (append-only: truncate).
        self._restore_result(controller.result, state["result"])
        (n_samples,) = state["timeline"]
        timeline = controller.timeline
        del timeline.times[n_samples:]
        del timeline.cpu[n_samples:]
        del timeline.mem_allocated[n_samples:]

        (controller._last_account, controller._sched_scheduled,
         controller._mem_scheduled, controller._dirty) = (
            state["controller_scalars"]
        )
        return pages

    @staticmethod
    def _restore_result(result, state: dict) -> None:
        result.policy = state["policy"]
        del result.records[state["n_records"]:]
        del result.unrunnable[state["n_unrunnable"]:]
        result.oom_kills = state["oom_kills"]
        result.timeouts = state["timeouts"]
        result.makespan = state["makespan"]
        result.first_submit = state["first_submit"]
        result.node_busy_seconds = state["node_busy_seconds"]
        result.mem_allocated_mb_seconds = state["mem_allocated_mb_seconds"]
        result.mem_remote_mb_seconds = state["mem_remote_mb_seconds"]
        result.total_nodes = state["total_nodes"]
        result.total_capacity_mb = state["total_capacity_mb"]
        result.events_processed = state["events_processed"]
        result.meta = dict(state["meta"])

    # ------------------------------------------------------------------
    @property
    def content_key(self) -> str:
        """Stable digest of the captured state (fork-cache key part).

        Two snapshots of byte-identical simulation states — same columns,
        clock, queue, job fields and accumulators — share a key, so
        identical states dedupe in the fork cache.  Computed lazily and
        cached (the snapshot is frozen).
        """
        if self._hash is None:
            h = hashlib.blake2b(digest_size=16)
            state = self._state
            h.update(self.handle.cluster.columns.content_hash().encode())
            h.update(repr(state["engine"]).encode())
            entries, seq = state["queue"]
            h.update(str(seq).encode())
            for t, kind, eseq, payload in entries:
                jid = getattr(payload, "jid", None)
                h.update(f"{t!r}:{kind}:{eseq}:{jid}".encode())
            for jid in sorted(state["job_fields"]):
                h.update(
                    f"{jid}:{state['job_fields'][jid]!r}".encode()
                )
            res = state["result"]
            h.update(
                repr((res["n_records"], res["oom_kills"], res["timeouts"],
                      res["makespan"], res["node_busy_seconds"],
                      res["mem_allocated_mb_seconds"])).encode()
            )
            h.update(repr(state["cluster"]["scalars"]).encode())
            self._hash = h.hexdigest()
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SimSnapshot(t={self.now:.1f}s, "
            f"jobs={len(self._state['jobs'])}, "
            f"queue={len(self._state['queue'][0])} events)"
        )
