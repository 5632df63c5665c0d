"""Discrete-event primitives: event kinds and a deterministic event queue.

The queue orders events by ``(time, rank, sequence)``: ``rank`` encodes the
within-timestamp ordering (finishes before memory updates before scheduler
passes, so freed resources are visible to the scheduler in the same tick)
and ``sequence`` is a monotonically increasing tie-breaker that makes runs
bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Iterator, Optional

from .state import ForkState


class EventKind(IntEnum):
    """Kinds of simulation events, ordered by within-timestamp priority.

    Lower values run first when scheduled at the same simulated time.
    """

    JOB_FINISH = 0
    JOB_KILL = 1
    MEM_UPDATE = 2
    JOB_SUBMIT = 3
    SCHED_PASS = 4
    #: telemetry gauge sampling; runs after all state changes of the tick
    TELEMETRY = 5


@dataclass(frozen=True, slots=True)
class Event:
    """A scheduled simulation event."""

    time: float
    kind: EventKind
    seq: int
    payload: Any = None

    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, int(self.kind), self.seq)


#: Below this heap size compaction is pointless (the scan costs more than
#: the dead entries' memory).
_COMPACT_MIN = 64


@dataclass
class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Events may be *cancelled* lazily: :meth:`cancel` marks the sequence
    number dead and :meth:`pop` skips dead entries.  This is how finish
    events are rescheduled when a job's slowdown changes.  Heavy
    repricing can cancel far more events than are ever popped, so when
    dead entries outnumber live ones the heap is *compacted*: dead
    entries are filtered out and the survivors re-heapified.  Keys are
    unique ``(time, kind, seq)`` triples, so compaction cannot change
    the pop order.
    """

    #: heap entries hold frozen :class:`Event` objects, so a shallow
    #: copy of the heap is a complete capture
    fork_state = ForkState(
        values=("_seq", "_live"),
        copies=("_heap", "_dead"),
    )

    _heap: list[tuple[float, int, int, Event]] = field(default_factory=list)
    _seq: int = 0
    _dead: set[int] = field(default_factory=set)
    _live: int = 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event and return it (its ``seq`` is the cancel handle)."""
        if time != time:  # NaN guard
            raise ValueError("event time is NaN")
        ev = Event(time=time, kind=kind, seq=self._seq, payload=payload)
        heapq.heappush(self._heap, (time, int(kind), ev.seq, ev))
        self._seq += 1
        self._live += 1
        return ev

    def cancel(self, ev: Event) -> None:
        """Mark ``ev`` as cancelled; it will be skipped on pop."""
        if ev.seq not in self._dead:
            self._dead.add(ev.seq)
            self._live -= 1
            if (
                len(self._heap) >= _COMPACT_MIN
                and len(self._dead) * 2 > len(self._heap)
            ):
                self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant."""
        self._heap = [e for e in self._heap if e[2] not in self._dead]
        self._dead.clear()
        heapq.heapify(self._heap)

    def compact(self) -> None:
        """Eagerly drop all cancelled entries (snapshot hygiene).

        A what-if capture copies the heap; compacting first keeps
        tombstones out of the captured state so forks never inherit
        dead entries.
        """
        if self._dead:
            self._compact()

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        while self._heap:
            _, _, seq, ev = heapq.heappop(self._heap)
            if seq in self._dead:
                self._dead.discard(seq)
                continue
            self._live -= 1
            return ev
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it."""
        while self._heap:
            t, _, seq, _ = self._heap[0]
            if seq in self._dead:
                heapq.heappop(self._heap)
                self._dead.discard(seq)
                continue
            return t
        return None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def drain(self) -> Iterator[Event]:
        """Yield all remaining live events in order (testing helper)."""
        while True:
            ev = self.pop()
            if ev is None:
                return
            yield ev
