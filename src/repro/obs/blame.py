"""Blame attribution: decomposing job wait time into causes.

Every scheduling pass classifies *why* each still-pending job could not
start, and the accumulator charges the wall-clock interval since the
job's previous attribution to that cause:

* ``hol_blocking`` — enough resources may exist, but the job is behind
  a blocked queue head (FCFS order / backfill window) or short of idle
  nodes taken by other jobs;
* ``local_shortfall`` — the cluster lacks the free local DRAM the
  request needs (the admission pre-check or the baseline's
  fitting-nodes rule failed on memory);
* ``lender_scarcity`` — node counts and local totals pass, but the
  pool cannot assemble the remote complement (borrow planning failed);
* ``memory_node_rule`` — idle nodes exist, but too many are memory
  nodes (lent > 50% capacity) and may not start jobs (paper §2.1);
* ``sched_cadence`` — the residual between submission and the first
  scheduling pass (nothing blocked the job; the controller simply had
  not looked yet).

The components of one job sum to its total queued time (its *wait* for
never-restarted jobs; across all requeue episodes for OOM-restarted
ones) — property-tested in ``tests/test_obs_blame.py``.  The decomposed
slowdown counterpart is the breakdown that
:meth:`repro.slowdown.model.ContentionModel.slowdown` fills in when
asked for it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.state import ForkState

__all__ = [
    "BlameAccumulator",
    "WAIT_CADENCE",
    "WAIT_COMPONENTS",
    "WAIT_HOL",
    "WAIT_LENDER",
    "WAIT_LOCAL",
    "WAIT_MEMNODE",
]

WAIT_HOL = "hol_blocking"
WAIT_LOCAL = "local_shortfall"
WAIT_LENDER = "lender_scarcity"
WAIT_MEMNODE = "memory_node_rule"
WAIT_CADENCE = "sched_cadence"

#: Every wait-time component, in report order.
WAIT_COMPONENTS = (
    WAIT_HOL,
    WAIT_LOCAL,
    WAIT_LENDER,
    WAIT_MEMNODE,
    WAIT_CADENCE,
)


class BlameAccumulator:
    """Per-job wait-time decomposition (driven by the controller)."""

    fork_state = ForkState(
        copies=("total_wait", "_stamp", "_reason"), nested=("wait",),
    )

    def __init__(self) -> None:
        #: jid -> {component: seconds} (closed episodes + the open one)
        self.wait: Dict[int, Dict[str, float]] = {}
        #: jid -> total attributed seconds (same increments as ``wait``,
        #: so the per-component sum matches it to float addition order)
        self.total_wait: Dict[int, float] = {}
        self._stamp: Dict[int, float] = {}
        self._reason: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def enqueued(self, jid: int, t: float) -> None:
        """Job entered the pending queue (submit or OOM requeue)."""
        self._stamp[jid] = t
        self._reason[jid] = WAIT_CADENCE

    def attribute(self, jid: int, t: float, reason: Optional[str] = None) -> bool:
        """Charge the interval since the last stamp to ``reason``.

        ``reason=None`` keeps the job's stored reason (used when a pass
        did not examine the job, or at start for the final residual).
        Returns whether the stored reason changed (the controller emits
        a ``wait_blame`` provenance event only on transitions).
        """
        stamp = self._stamp.get(jid)
        if stamp is None:
            return False
        changed = False
        if reason is None:
            reason = self._reason[jid]
        elif reason != self._reason[jid]:
            self._reason[jid] = reason
            changed = True
        dt = t - stamp
        if dt > 0:
            buckets = self.wait.setdefault(jid, {})
            buckets[reason] = buckets.get(reason, 0.0) + dt
            self.total_wait[jid] = self.total_wait.get(jid, 0.0) + dt
        self._stamp[jid] = t
        return changed

    def started(self, jid: int, t: float) -> None:
        """Job left the queue: close the episode on the stored reason."""
        self.attribute(jid, t)
        self._stamp.pop(jid, None)
        self._reason.pop(jid, None)

    # ------------------------------------------------------------------
    def reason_of(self, jid: int) -> Optional[str]:
        return self._reason.get(jid)

    def components_of(self, jid: int) -> Dict[str, float]:
        """``{component: seconds}`` over all components (zeros included)."""
        buckets = self.wait.get(jid, {})
        return {c: buckets.get(c, 0.0) for c in WAIT_COMPONENTS}

    def jids(self) -> List[int]:
        return sorted(self.total_wait)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump (written as ``blame.json`` by the exporter)."""
        jobs = {
            str(jid): {
                "total_wait_s": self.total_wait[jid],
                "wait": {
                    c: v
                    for c, v in sorted(self.wait.get(jid, {}).items())
                },
            }
            for jid in self.jids()
        }
        return {"components": list(WAIT_COMPONENTS), "jobs": jobs}
