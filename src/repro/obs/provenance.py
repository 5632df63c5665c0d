"""Causal provenance: a deterministic, ring-buffered event graph.

Telemetry (PR 4) records *what* happened; this module records *why*.
The controller, the dynamic policy, the memory pool and the cluster's
mutator pub/sub each emit :class:`ProvenanceEvent` records at the
simulator's decision seams — sched passes, Monitor→Decider→Actuator
outcomes, borrow plans with their lender sets, backfill shadow holes,
contention repricings, allocation commits/releases — and every record
carries the event ids of its *parents*, so any outcome can be walked
back to its causes (``repro explain``, ``repro diff``).

Determinism contract: events are stamped with *simulated* time (the
emitter sets :attr:`ProvenanceLog.now` from the engine clock) and ids
are sequential integers, so two identical-seed runs produce
byte-identical ``provenance.jsonl`` dumps.  The log is a ring buffer:
``max_entries`` bounds memory, ``dropped`` counts evictions, and walks
simply stop at evicted parents.

The log is the run's only event record.  The job-lifecycle stream that
``repro trace --job`` and the Perfetto job tracks read
(``events.jsonl``) is a view over it: :func:`lifecycle_rows`.

:data:`NULL_PROVENANCE` is the disabled singleton.  Emitters guard with
``if prov.enabled:`` so a disabled run performs no calls and no
allocations at all (guard-tested; see ``tests/test_obs_provenance.py``).
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.state import ForkState

__all__ = [
    "NULL_PROVENANCE",
    "NullProvenance",
    "ProvenanceEvent",
    "ProvenanceLog",
    "causal_chain",
    "lifecycle_jsonl",
    "lifecycle_rows",
    "load_provenance",
    "provenance_jsonl",
    "render_row",
]

#: Default ring-buffer bound (events; one full 1024-node campaign run
#: emits a few hundred thousand, so single observed runs keep everything
#: that matters while long campaigns stay bounded).
DEFAULT_MAX_PROV_ENTRIES = 200_000


class ProvenanceEvent:
    """One node of the causal graph."""

    __slots__ = ("eid", "t", "kind", "jid", "parents", "data")

    #: immutable once emitted, so a captured log shares its events
    fork_state = ForkState(fixed=__slots__)

    def __init__(
        self,
        eid: int,
        t: float,
        kind: str,
        jid: Optional[int],
        parents: Tuple[int, ...],
        data: Dict[str, object],
    ):
        self.eid = eid
        self.t = t
        self.kind = kind
        self.jid = jid
        self.parents = parents
        self.data = data

    def to_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {"eid": self.eid, "t": self.t, "kind": self.kind}
        if self.jid is not None:
            row["jid"] = self.jid
        if self.parents:
            row["parents"] = list(self.parents)
        if self.data:
            row["data"] = self.data
        return row

    def render(self) -> str:
        jid = f" job {self.jid}" if self.jid is not None else ""
        data = f"  {json.dumps(self.data, sort_keys=True)}" if self.data else ""
        return f"#{self.eid} [{self.t:12.1f}s] {self.kind:<16}{jid}{data}"


class ProvenanceLog:
    """Ring-buffered causal event log for one simulation run.

    ``emit`` stamps each event with :attr:`now` (set by the controller
    from the engine clock before its handlers run) and auto-links it to
    the emitting job's previous event plus the current handler *scope*
    event via :meth:`link` — callers may always pass explicit parents
    instead.
    """

    enabled = True

    fork_state = ForkState(
        values=("dropped", "next_eid", "now", "scope"),
        copies=("events", "last_of"),
        fixed=("max_entries",),
    )

    def __init__(self, max_entries: Optional[int] = DEFAULT_MAX_PROV_ENTRIES):
        if max_entries is not None and max_entries <= 0:
            raise ValueError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        self.max_entries = max_entries
        self.events: "deque[ProvenanceEvent]" = deque(maxlen=max_entries)
        #: evicted (oldest-first) event count
        self.dropped = 0
        self.next_eid = 0
        #: simulated-time stamp applied to emitted events
        self.now = 0.0
        #: current handler event id (sched pass / mem update / ...)
        self.scope: Optional[int] = None
        #: per-job id of the job's most recent event (parent chaining)
        self.last_of: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def link(self, jid: Optional[int] = None) -> Tuple[int, ...]:
        """Default parent set: the job's last event, then the scope."""
        parents: List[int] = []
        if jid is not None:
            last = self.last_of.get(jid)
            if last is not None:
                parents.append(last)
        if self.scope is not None and self.scope not in parents:
            parents.append(self.scope)
        return tuple(parents)

    def emit(
        self,
        kind: str,
        jid: Optional[int] = None,
        parents: Optional[Sequence[int]] = None,
        **data: object,
    ) -> int:
        """Record one event and return its id.

        ``parents=None`` auto-links via :meth:`link`; pass ``()`` for an
        explicit root event.
        """
        if parents is None:
            parents = self.link(jid)
        eid = self.next_eid
        self.next_eid += 1
        if self.max_entries is not None and len(self.events) == self.max_entries:
            self.dropped += 1  # deque evicts the oldest on append
        self.events.append(
            ProvenanceEvent(eid, self.now, kind, jid, tuple(parents), data)
        )
        if jid is not None:
            self.last_of[jid] = eid
        return eid

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ProvenanceEvent]:
        return iter(self.events)

    def get(self, eid: int) -> Optional[ProvenanceEvent]:
        """The surviving event with id ``eid`` (O(1); None if evicted)."""
        base = self.next_eid - len(self.events)
        if eid < base or eid >= self.next_eid:
            return None
        return self.events[eid - base]

    def of_kind(self, kind: str) -> List[ProvenanceEvent]:
        return [e for e in self.events if e.kind == kind]

    def walk_back(
        self, eid: int, limit: int = 50
    ) -> Tuple[List[ProvenanceEvent], int]:
        """The causal ancestry of ``eid``, newest-first.

        Returns ``(events, missing)`` where ``missing`` counts parent
        ids that were evicted from the ring (the walk stops there).
        """
        seen = set()
        frontier = [eid]
        found: List[ProvenanceEvent] = []
        missing = 0
        while frontier and len(found) < limit:
            cur = frontier.pop()
            if cur in seen:
                continue
            seen.add(cur)
            ev = self.get(cur)
            if ev is None:
                missing += 1
                continue
            found.append(ev)
            frontier.extend(ev.parents)
        found.sort(key=lambda e: -e.eid)
        return found, missing

    # ------------------------------------------------------------------
    def to_rows(self) -> List[Dict[str, object]]:
        """JSON-ready rows, oldest-first (deterministic)."""
        return [e.to_row() for e in self.events]

    def to_jsonl(self) -> str:
        return provenance_jsonl(self.to_rows())


class NullProvenance(ProvenanceLog):
    """Disabled provenance: guards skip it; calls are cheap no-ops."""

    enabled = False

    #: the shared singleton never records, so it declares no state
    fork_state = ForkState(fixed=ProvenanceLog.fork_state.names)

    def __init__(self) -> None:
        super().__init__(max_entries=None)

    def emit(self, kind, jid=None, parents=None, **data) -> int:
        return -1

    def link(self, jid=None) -> Tuple[int, ...]:
        return ()


#: Shared disabled instance (``NullTelemetry`` and pool default).
NULL_PROVENANCE = NullProvenance()


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
def provenance_jsonl(rows: Sequence[Dict[str, object]]) -> str:
    """Deterministic JSONL dump of provenance rows."""
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


#: The job-lifecycle provenance kinds: ``kind -> (events.jsonl event
#: name, detail template over the event's data)``.
_LIFECYCLE = {
    "submit": ("submit", "n={n_nodes} req={mem_request_mb}MB"),
    "start": ("start", "nodes={nodes} local={local_mb}MB remote={remote_mb}MB "
                       "slowdown={slowdown:.3f}"),
    "finish": ("finish", "runtime={runtime_s:.0f}s"),
    "resize": ("resize", "freed={freed_mb}MB grown={grown_mb}MB"),
    "oom_kill": ("oom-kill", "restarts={restarts}"),
    "timeout": ("timeout", "limit={limit_s:.0f}s"),
    "unrunnable": ("unrunnable", ""),
}


def lifecycle_rows(events: Iterable[ProvenanceEvent]) -> List[Dict[str, object]]:
    """The job-lifecycle view of a provenance stream, oldest-first.

    Rows follow the ``events.jsonl`` schema: ``t``, ``event``, ``jid``
    and a human-readable ``detail`` (omitted when empty).  A ring that
    evicted events yields only the surviving lifecycle rows.
    """
    rows: List[Dict[str, object]] = []
    for e in events:
        spec = _LIFECYCLE.get(e.kind)
        if spec is None:
            continue
        event, template = spec
        row: Dict[str, object] = {"t": e.t, "event": event, "jid": e.jid}
        if template:
            row["detail"] = template.format(**e.data)
        rows.append(row)
    return rows


def lifecycle_jsonl(events: Iterable[ProvenanceEvent]) -> str:
    """:func:`lifecycle_rows` as ``events.jsonl`` text.

    Keys keep the schema order (``t``, ``event``, ``jid``, ``detail``)
    rather than being sorted, so existing dumps stay comparable with
    ``repro diff``.
    """
    return "".join(json.dumps(row) + "\n" for row in lifecycle_rows(events))


def load_provenance(directory: Union[str, Path]) -> List[Dict]:
    """Rows of ``provenance.jsonl`` in a telemetry dir (empty if absent)."""
    path = Path(directory) / "provenance.jsonl"
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def causal_chain(
    rows: Sequence[Dict], eid: int, limit: int = 50
) -> Tuple[List[Dict], int]:
    """Offline :meth:`ProvenanceLog.walk_back` over loaded rows."""
    by_eid = {row["eid"]: row for row in rows}
    seen = set()
    frontier = [eid]
    found: List[Dict] = []
    missing = 0
    while frontier and len(found) < limit:
        cur = frontier.pop()
        if cur in seen:
            continue
        seen.add(cur)
        row = by_eid.get(cur)
        if row is None:
            missing += 1
            continue
        found.append(row)
        frontier.extend(row.get("parents", ()))
    found.sort(key=lambda r: -r["eid"])
    return found, missing


def render_row(row: Dict) -> str:
    """One-line rendering of a loaded provenance row."""
    jid = f" job {row['jid']}" if row.get("jid") is not None else ""
    data = row.get("data")
    tail = f"  {json.dumps(data, sort_keys=True)}" if data else ""
    return (
        f"#{row['eid']} [{float(row['t']):12.1f}s] {row['kind']:<16}{jid}{tail}"
    )
