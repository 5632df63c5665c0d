"""Control-loop span tracing.

A :class:`Span` records one timed section of the simulation — a
controller tick, one Monitor/Decider/Actuator/Executor phase, a
scheduling/backfill pass — with both coordinates that matter when
debugging a control loop:

* ``sim_t`` — *when in the simulated run* the section happened;
* ``wall_s`` — *how long the host spent* executing it.

Spans are append-only and serialise to JSONL (``spans.jsonl`` in a
telemetry directory).  They intentionally live outside the metrics
registry: wall-clock durations vary across hosts and runs, so they are
excluded from the byte-identical determinism guarantees the registry
dumps make.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.state import ForkState

__all__ = ["Span", "SpanTracer", "aggregate_spans"]


class Span:
    """One timed section: name, simulated time, wall duration, count.

    ``count > 1`` marks an aggregated span (e.g. the Monitor phase over
    all running jobs of one tick, emitted as a single span).
    """

    __slots__ = ("name", "sim_t", "wall_s", "count", "jid", "detail")

    fork_state = ForkState(fixed=__slots__)

    def __init__(self, name: str, sim_t: float, wall_s: float,
                 count: int = 1, jid: Optional[int] = None, detail: str = ""):
        self.name = name
        self.sim_t = sim_t
        self.wall_s = wall_s
        self.count = count
        self.jid = jid
        self.detail = detail

    def to_json(self) -> Dict:
        row: Dict = {"name": self.name, "sim_t": self.sim_t,
                     "wall_s": self.wall_s, "count": self.count}
        if self.jid is not None:
            row["jid"] = self.jid
        if self.detail:
            row["detail"] = self.detail
        return row

    @classmethod
    def from_json(cls, row: Dict) -> "Span":
        return cls(row["name"], float(row["sim_t"]), float(row["wall_s"]),
                   int(row.get("count", 1)), row.get("jid"),
                   row.get("detail", ""))


class SpanTracer:
    """Append-only span recorder.

    Spans are wall-clock diagnostics outside the determinism contract,
    so they survive what-if rollbacks: a fork keeps appending.
    """

    fork_state = ForkState(survive=("spans",))

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, sim_t: float, jid: Optional[int] = None,
             detail: str = ""):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                Span(name, sim_t, perf_counter() - t0, 1, jid, detail)
            )

    def add(self, name: str, sim_t: float, wall_s: float, count: int = 1,
            jid: Optional[int] = None, detail: str = "") -> None:
        """Record a pre-measured (possibly aggregated) span."""
        self.spans.append(Span(name, sim_t, wall_s, count, jid, detail))

    def __len__(self) -> int:
        return len(self.spans)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(s.to_json()) + "\n" for s in self.spans)


def aggregate_spans(
    spans: Iterable[Span],
) -> List[Tuple[str, int, int, float, float]]:
    """Aggregate spans by name: (name, spans, calls, total wall s, max wall s).

    ``calls`` sums the per-span ``count`` (one aggregated Monitor span
    covering 40 jobs contributes 40 calls), sorted by total wall time
    descending so the head of the list is the "top-N slowest phases"
    view that ``repro trace`` renders.
    """
    acc: Dict[str, List[float]] = {}
    for s in spans:
        row = acc.setdefault(s.name, [0, 0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.count
        row[2] += s.wall_s
        row[3] = max(row[3], s.wall_s)
    out = [
        (name, int(r[0]), int(r[1]), r[2], r[3]) for name, r in acc.items()
    ]
    out.sort(key=lambda row: (-row[3], row[0]))
    return out
