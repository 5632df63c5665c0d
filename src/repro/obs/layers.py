"""One wall-clock layer table per observed run.

:class:`LayerTimer` answers "why was this run slow?" without a hook in
simulator code.  For the duration of one observed engine run
(:meth:`LayerTimer.attached`) it swaps a timed wrapper in for each entry
point of :data:`LAYER_POINTS`, at class or module level, and for each
event handler of the engine; on exit it puts every original back.  Each
open span keeps the time of the spans it encloses (the span stack lives
in the wrappers' frames), so a call's *self* time excludes the layers
it calls, and the self times of all rows sum to the total of the root
row ``core.engine.run``, whose own self time is event dispatch.

Hot leaf functions (``ProvenanceLog.emit``, ``MemoryPool.plan_borrow``,
``update`` of the policies, the contention model's pricing) are not
wrapped on purpose: at their call rates a wrapper costs more than it
tells, so their time lands in their caller's self time.

Wall-clock times vary across hosts and runs, so the table sits outside
the determinism contract: it survives what-if rollbacks and exports to
``spans.jsonl`` only, one row per layer::

    {"name": "policy.actuator", "calls": 190, "total_s": 0.0128,
     "self_s": 0.0063, "max_s": 0.00027}
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

from ..core.state import ForkState

__all__ = ["LAYER_POINTS", "ROOT", "LayerTimer"]

#: ``(module, qualname, layer)`` of every timed entry point: the one
#: place that names a timed layer.  Event handlers are timed as well,
#: each under its own name (``_on_mem_update`` is
#: ``scheduler.on_mem_update``).
LAYER_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scheduler.controller", "Controller._sched_pass",
     "scheduler.sched_pass"),
    ("repro.scheduler.controller", "shadow_time",
     "scheduler.backfill.shadow_time"),
    ("repro.scheduler.controller", "Controller._plan_for", "scheduler.plan"),
    ("repro.scheduler.controller", "Controller._attribute_wait", "obs.blame"),
    ("repro.scheduler.controller", "Controller._reprice", "slowdown.reprice"),
    ("repro.slowdown.model", "ContentionModel.affected_jobs",
     "slowdown.affected_jobs"),
    ("repro.policies.dynamic", "DynamicDisaggregatedPolicy._monitor",
     "policy.monitor"),
    ("repro.policies.dynamic", "DynamicDisaggregatedPolicy._decide",
     "policy.decider"),
    ("repro.policies.dynamic", "DynamicDisaggregatedPolicy._actuate",
     "policy.actuator"),
    ("repro.cluster.cluster", "Cluster.apply", "cluster.apply"),
    ("repro.cluster.cluster", "Cluster.release", "cluster.release"),
    ("repro.cluster.cluster", "Cluster.resize", "cluster.resize"),
    ("repro.cluster.memorypool", "MemoryPool.split_borrow",
     "cluster.memorypool.split_borrow"),
    ("repro.obs.telemetry", "Telemetry.sample_cluster",
     "obs.telemetry.sample_cluster"),
)

#: The root row: the observed engine runs; its self time is dispatch.
ROOT = "core.engine.run"

#: Attribute naming the layer a wrapper times (marks a patched point).
_MARK = "__layer__"


def resolve(module: str, qualname: str) -> Tuple[object, str]:
    """``(owner, attr)`` of one point; the owner is a module or class."""
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for name in path:
        owner = vars(owner)[name]
    return owner, attr


class LayerTimer:
    """Calls, total, self and max wall time per layer (see the module
    docstring).  The wrappers are built once and rebuilt only for a point
    whose attribute changed between attaches (a test or benchmark patched
    it), so an attach only swaps attributes."""

    #: wall-clock diagnostics and memo caches: a rollback leaves them be
    fork_state = ForkState(survive=("rows", "_inner", "_points",
                                    "_handlers"))

    def __init__(self) -> None:
        #: layer -> ``[calls, total_s, self_s, max_s]``
        self.rows: Dict[str, List[float]] = {}
        #: ``[s]``: time of the spans closed so far inside the innermost
        #: open span (each wrapper saves its parent's value and puts it
        #: back, plus its own time, when it closes)
        self._inner: List[float] = [0.0]
        #: ``[owner, attr, original, wrapper]`` per point, on first attach
        self._points: List[list] = []
        #: the handler dict last wrapped, and its wrapped twin
        self._handlers: Tuple[Dict, Dict] = ({}, {})

    def _row(self, layer: str) -> List[float]:
        return self.rows.setdefault(layer, [0, 0.0, 0.0, 0.0])

    def _timed(self, fn: Callable, layer: str) -> Callable:
        inner = self._inner
        row = self._row(layer)
        clock = perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            outer = inner[0]
            inner[0] = 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                row[0] += 1
                row[1] += dt
                row[2] += dt - inner[0]
                if dt > row[3]:
                    row[3] = dt
                inner[0] = outer + dt

        setattr(timed, _MARK, layer)
        return timed

    def _swaps(self) -> List[list]:
        """The current wrapper of every point; raises if one is patched
        already (a nested attach)."""
        if not self._points:
            self._points = [[*resolve(module, qualname), None, None]
                            for module, qualname, _ in LAYER_POINTS]
        for point, (module, qualname, layer) in zip(self._points,
                                                    LAYER_POINTS):
            current = vars(point[0])[point[1]]
            if hasattr(current, _MARK):
                raise RuntimeError(
                    f"{module}.{qualname} is timed already (nested attach)"
                )
            if current is not point[2]:
                point[2:] = current, self._timed(current, layer)
        return self._points

    def _timed_handlers(self, raw: Dict) -> Dict:
        """``raw`` with each handler timed under its own name
        (``_on_sched`` is ``scheduler.on_sched``)."""
        seen, timed = self._handlers
        if raw != seen:
            timed = {kind: self._timed(handler, "scheduler."
                                       + handler.__name__.lstrip("_"))
                     for kind, handler in raw.items()}
            self._handlers = (dict(raw), timed)
        return timed

    @contextmanager
    def attached(self, engine) -> Iterator["LayerTimer"]:
        """Time every layer while the body runs ``engine``; restore every
        original (and the raw handler dict) however the body exits."""
        points = self._swaps()
        raw = engine._handlers
        inner = self._inner
        try:
            for owner, attr, _, wrapper in points:
                setattr(owner, attr, wrapper)
            engine._handlers = self._timed_handlers(raw)
            inner[0] = 0.0
            t0 = perf_counter()
            try:
                yield self
            finally:
                dt = perf_counter() - t0
                row = self._row(ROOT)
                row[0] += 1
                row[1] += dt
                row[2] += dt - inner[0]
                row[3] = max(row[3], dt)
        finally:
            engine._handlers = raw
            for owner, attr, original, _ in points:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def table(self) -> List[Dict]:
        """One row per layer that ran, largest self time first."""
        rows = [
            {"name": name, "calls": int(r[0]), "total_s": r[1],
             "self_s": r[2], "max_s": r[3]}
            for name, r in self.rows.items() if r[0]
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["name"]))
        return rows

    def to_jsonl(self) -> str:
        return "".join(json.dumps(row) + "\n" for row in self.table())
