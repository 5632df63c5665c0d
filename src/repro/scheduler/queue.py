"""FCFS pending queue with bounded scheduler consideration depth.

Slurm considers a configurable prefix of the priority-ordered queue on
each scheduling pass (Table 4 sets queue and backfill size to 100).  Jobs
are ordered by the submission time of their *current attempt* (so an
OOM-restarted job re-queues at the tail) with the job id as tie-breaker.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..core.state import ForkState
from ..jobs.job import Job


class PendingQueue:
    """Priority-ordered (FCFS) queue of pending jobs."""

    fork_state = ForkState(values=("_dirty",), copies=("_jobs",))

    def __init__(self) -> None:
        self._jobs: List[Job] = []
        self._dirty = False

    def __len__(self) -> int:
        return len(self._jobs)

    def __bool__(self) -> bool:
        return bool(self._jobs)

    def add(self, job: Job) -> None:
        self._jobs.append(job)
        self._dirty = True

    def remove(self, job: Job) -> None:
        self._jobs.remove(job)

    def _sorted(self) -> List[Job]:
        if self._dirty:
            self._jobs.sort(key=lambda j: (j.queue_time, j.jid))
            self._dirty = False
        return self._jobs

    def head(self, depth: int) -> List[Job]:
        """The first ``depth`` jobs in priority order (a copy)."""
        return list(self._sorted()[:depth])

    def __iter__(self) -> Iterator[Job]:
        return iter(self._sorted())

    def peek(self) -> Optional[Job]:
        s = self._sorted()
        return s[0] if s else None

    def min_nodes(self) -> int:
        """Smallest node request among pending jobs (scheduling pre-check)."""
        if not self._jobs:
            return 0
        return min(j.n_nodes for j in self._jobs)
