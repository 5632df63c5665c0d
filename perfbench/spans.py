"""Span recorder for the traced benchmark run.

The recorder times calls into each simulator layer from outside the
program: it replaces public functions at class or module level with
wrappers that push a span on a stack, so a span's self time excludes the
time of the spans it encloses.  Spans are aggregated in memory per name
(calls, total seconds, self seconds) and read out when the run ends.

Functions imported by name are patched where they are looked up (for
example ``repro.scheduler.controller.shadow_time``).  Event handlers are
registered through ``Engine.on``, so wrapping ``Engine.on`` gives one
span per event kind.  :meth:`Recorder.uninstall` puts every original
object back, including the handlers of engines built while installed.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of each engine event kind's handler (by ``EventKind`` name).
HANDLER_SPANS = {
    "JOB_SUBMIT": "scheduler.on_submit",
    "SCHED_PASS": "scheduler.on_sched",
    "JOB_FINISH": "scheduler.on_finish",
    "MEM_UPDATE": "scheduler.on_mem_update",
    "TELEMETRY": "scheduler.on_telemetry",
    "JOB_KILL": "scheduler.on_wall_kill",
    "SAMPLE": "scheduler.on_sample",
}

ENGINE_RUN = "core.engine.run"

OutcomeFn = Callable[[object], Dict[str, int]]


def not_none(result) -> Dict[str, int]:
    """Outcome of a planner: ``ok`` when it returned a plan."""
    return {"ok": 1} if result is not None else {}


def truthy(result) -> Dict[str, int]:
    return {"true": 1} if result else {}


def update_outcome(outcome) -> Dict[str, int]:
    return {"resized": int(outcome.resized), "oom": int(outcome.oom)}


def pages_restored(pages) -> Dict[str, int]:
    return {"pages": int(pages)}


class Recorder:
    """Aggregating span stack plus the patches that feed it."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: counter name -> value (count-only wrappers and outcomes)
        self.counts: Dict[str, int] = {}
        #: summed totals of top-level spans (what self times add up to)
        self.root_total = 0.0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._handlers: List[Tuple[object, object, Callable]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget recorded spans and counts (patches stay installed)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        # In place: installed wrappers hold references to both dicts.
        self.stats.clear()
        self.counts.clear()
        self.root_total = 0.0

    def _close(self, name: str, frame: list, dt: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][1] += dt
        else:
            self.root_total += dt
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += dt
        row[2] += dt - frame[1]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (the benchmark's roots)."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, frame, time.perf_counter() - t0)

    def timed(self, fn: Callable, name: str, outcome: Optional[OutcomeFn] = None,
              inside: Optional[Dict[str, str]] = None) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``inside`` renames the span by its parent (``{parent: name}``).
        A call nested directly in a span of the same name (``super()``
        chains) folds into the outer span.
        """
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if stack:
                parent = stack[-1][0]
                if inside is not None:
                    span = inside.get(parent, name)
                if parent == span:
                    return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, frame, clock() - t0)
            if outcome is not None:
                for suffix, n in outcome(result).items():
                    key = f"{span}.{suffix}"
                    counts[key] = counts.get(key, 0) + n
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` so each call bumps counter ``name`` (no timing)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by ``wrap(it)``.

        Class- and static-method descriptors are unwrapped and rebuilt.
        """
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(wrap(original.__func__))
        else:
            replacement = wrap(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(self, owner, attr: str, name: str, **kwargs) -> None:
        self.patch(owner, attr, lambda fn: self.timed(fn, name, **kwargs))

    def span_each(self, classes, attr: str, name: str, **kwargs) -> None:
        """Time ``attr`` on every class in ``classes`` that defines it."""
        for cls in classes:
            if attr in vars(cls):
                self.span(cls, attr, name, **kwargs)

    def count(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, lambda fn: self.counted(fn, name))

    def wrap_handlers(self, engine_cls) -> None:
        """Give every handler registered via ``engine_cls.on`` a span."""
        def wrap(on):
            @functools.wraps(on)
            def traced_on(engine, kind, handler):
                self._handlers.append((engine, kind, handler))
                return on(engine, kind, self.timed(handler, HANDLER_SPANS[kind.name]))
            return traced_on

        self.patch(engine_cls, "on", wrap)

    def uninstall(self) -> None:
        """Restore every patched attribute and re-register raw handlers."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        for engine, kind, handler in self._handlers:
            engine.on(kind, handler)
        self._handlers = []

    def originals(self) -> List[Tuple[object, str, object]]:
        """``(owner, attr, original)`` of every installed patch."""
        return list(self._patches)


def install_layers(rec: Recorder) -> None:
    """Patch the public entry points of every simulator layer."""
    from repro.cluster.cluster import Cluster
    from repro.cluster.memorypool import MemoryPool
    from repro.core.engine import Engine
    from repro.core.events import EventQueue
    from repro.experiments import runner
    from repro.obs.provenance import ProvenanceLog
    from repro.obs.telemetry import Telemetry
    from repro.policies.base import AllocationPolicy
    from repro.policies.baseline import BaselinePolicy
    from repro.policies.dynamic import DynamicDisaggregatedPolicy
    from repro.policies.static import StaticDisaggregatedPolicy
    from repro.scheduler import controller, simulator
    from repro.slowdown.model import ContentionModel
    from repro.whatif import api as whatif_api
    from repro.whatif.snapshot import SimSnapshot

    # core
    rec.span(Engine, "run", ENGINE_RUN)
    rec.wrap_handlers(Engine)
    rec.count(EventQueue, "push", "core.events.pushed")
    rec.count(EventQueue, "cancel", "core.events.cancelled")
    # scheduler
    rec.span(controller, "shadow_time", "scheduler.backfill.shadow_time")
    rec.span(controller, "can_backfill", "scheduler.backfill.can_backfill",
             outcome=truthy)
    rec.span(controller.Controller, "load", "scheduler.load")
    rec.span(controller.Controller, "finalize", "scheduler.finalize")
    rec.span(simulator, "build_simulation", "scheduler.build")
    rec.span(whatif_api, "build_simulation", "scheduler.build")
    rec.span(simulator.SimulationHandle, "finish", "scheduler.run_finish",
             inside={"whatif.query": "whatif.replay_finish"})
    # policies
    policies = (AllocationPolicy, BaselinePolicy, StaticDisaggregatedPolicy,
                DynamicDisaggregatedPolicy)
    rec.span_each(policies, "plan", "policies.plan", outcome=not_none)
    rec.span_each(policies, "update", "policies.update", outcome=update_outcome)
    # cluster and memory pool
    for attr in ("apply", "release", "grow_local", "shrink_local",
                 "add_remote", "remove_remote", "check_invariants"):
        rec.span(Cluster, attr, f"cluster.{attr}")
    for attr in ("plan_borrow", "split_borrow"):
        rec.span(MemoryPool, attr, f"cluster.memorypool.{attr}", outcome=not_none)
    # slowdown
    rec.span(ContentionModel, "slowdown", "slowdown.slowdown")
    rec.span(ContentionModel, "affected_jobs", "slowdown.affected_jobs")
    rec.count(ContentionModel, "lender_demand", "slowdown.lender_demand.calls")
    # obs
    for attr in ("sample_cluster", "finish", "export"):
        rec.span(Telemetry, attr, f"obs.telemetry.{attr}")
    rec.span(ProvenanceLog, "emit", "obs.provenance.emit")
    # what-if
    rec.span(SimSnapshot, "capture", "whatif.capture")
    rec.span(SimSnapshot, "restore", "whatif.restore", outcome=pages_restored)
    rec.span(whatif_api.WhatIf, "__init__", "whatif.setup")
    rec.span(whatif_api.WhatIf, "query", "whatif.query")
    # traces
    rec.span(runner, "synthetic_workload", "traces.generate")


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Spans reported as ``<name>.calls`` and ``<name>.self_s``.
TIMED_SPANS = (
    "scheduler.on_submit",
    "scheduler.on_sched",
    "scheduler.on_finish",
    "scheduler.on_mem_update",
    "scheduler.on_telemetry",
    "scheduler.backfill.shadow_time",
    "scheduler.backfill.can_backfill",
    "scheduler.load",
    "scheduler.finalize",
    "policies.plan",
    "policies.update",
    "cluster.apply",
    "cluster.release",
    "cluster.grow_local",
    "cluster.shrink_local",
    "cluster.add_remote",
    "cluster.remove_remote",
    "cluster.check_invariants",
    "cluster.memorypool.plan_borrow",
    "cluster.memorypool.split_borrow",
    "slowdown.slowdown",
    "slowdown.affected_jobs",
    "obs.telemetry.sample_cluster",
    "obs.telemetry.finish",
    "obs.telemetry.export",
    "obs.provenance.emit",
    "whatif.capture",
    "whatif.restore",
    "whatif.replay_finish",
    "traces.generate",
)

#: Every other per-layer metric with its unit and better direction.
EXTRA_METRICS = (
    ("core.engine.events", "count", "lower"),
    ("core.engine.dispatch_self_s", "s", "lower"),
    ("core.events.pushed", "count", "lower"),
    ("core.events.cancel_ratio", "ratio", "lower"),
    ("scheduler.backfill.can_backfill.true_ratio", "ratio", "higher"),
    ("policies.plan.success_ratio", "ratio", "higher"),
    ("policies.update.resize_ratio", "ratio", "lower"),
    ("policies.update.oom", "count", "lower"),
    ("cluster.free_log_overflows", "count", "lower"),
    ("cluster.memorypool.plan_borrow.success_ratio", "ratio", "higher"),
    ("cluster.memorypool.split_borrow.success_ratio", "ratio", "higher"),
    ("cluster.memorypool.index.repairs", "count", "lower"),
    ("cluster.memorypool.index.rebuilds", "count", "lower"),
    ("cluster.cow.pages_copied", "count", "lower"),
    ("cluster.cow.bytes_copied", "B", "lower"),
    ("slowdown.lender_demand.calls", "count", "lower"),
    ("slowdown.demand_hit_ratio", "ratio", "higher"),
    ("whatif.restore.pages", "count", "lower"),
    ("whatif.events_replayed", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics():
    """``(name, unit, better)`` of every per-layer metric, in report order."""
    rows = []
    for span in TIMED_SPANS:
        rows.append((f"{span}.calls", "count", "lower"))
        rows.append((f"{span}.self_s", "s", "lower"))
    rows.extend(EXTRA_METRICS)
    return rows


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(rec: Recorder, handle, cow_pages: int = 0,
                 cow_bytes: int = 0, events_replayed: int = 0) -> Dict[str, float]:
    """Per-layer metrics of the work recorded since the last reset.

    ``handle`` is the simulation the work ran on; its cluster, pool and
    contention model supply the counters the program already keeps.
    ``trace.overhead_frac`` is left to the caller, which times untraced
    runs.
    """
    stats, counts = rec.stats, rec.counts
    zero = (0, 0.0, 0.0)

    def calls(name):
        return stats.get(name, zero)[0]

    values: Dict[str, float] = {}
    for span in TIMED_SPANS:
        values[f"{span}.calls"] = calls(span)
        values[f"{span}.self_s"] = stats.get(span, zero)[2]
    handlers = [stats[n] for n in set(HANDLER_SPANS.values()) if n in stats]
    run_calls, run_total, dispatch_self = stats.get(ENGINE_RUN, zero)
    pushed = counts.get("core.events.pushed", 0)
    pool = getattr(handle.policy, "pool", None)
    indexes = (pool.free_index, pool.bestfit_index) if pool is not None else ()
    model = handle.model
    values.update({
        "core.engine.events": sum(row[0] for row in handlers),
        "core.engine.dispatch_self_s": dispatch_self,
        "core.events.pushed": pushed,
        "core.events.cancel_ratio": _ratio(
            counts.get("core.events.cancelled", 0), pushed),
        "scheduler.backfill.can_backfill.true_ratio": _ratio(
            counts.get("scheduler.backfill.can_backfill.true", 0),
            calls("scheduler.backfill.can_backfill")),
        "policies.plan.success_ratio": _ratio(
            counts.get("policies.plan.ok", 0), calls("policies.plan")),
        "policies.update.resize_ratio": _ratio(
            counts.get("policies.update.resized", 0), calls("policies.update")),
        "policies.update.oom": counts.get("policies.update.oom", 0),
        "cluster.free_log_overflows": handle.cluster.free_log_overflows,
        "cluster.memorypool.index.repairs": sum(ix.repairs for ix in indexes),
        "cluster.memorypool.index.rebuilds": sum(ix.rebuilds for ix in indexes),
        "cluster.cow.pages_copied": cow_pages,
        "cluster.cow.bytes_copied": cow_bytes,
        "slowdown.lender_demand.calls": counts.get("slowdown.lender_demand.calls", 0),
        "slowdown.demand_hit_ratio": _ratio(
            model.demand_hits, model.demand_hits + model.demand_misses),
        "whatif.restore.pages": counts.get("whatif.restore.pages", 0),
        "whatif.events_replayed": events_replayed,
        "trace.coverage": _ratio(
            sum(row[1] for row in handlers) + dispatch_self, run_total),
    })
    for name in ("plan_borrow", "split_borrow"):
        span = f"cluster.memorypool.{name}"
        values[f"{span}.success_ratio"] = _ratio(
            counts.get(f"{span}.ok", 0), calls(span))
    return values
