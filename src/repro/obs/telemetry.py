"""The telemetry facade wired into ``simulate(..., telemetry=...)``.

One :class:`Telemetry` instance observes one simulation run: it owns the
metrics registry (deterministic, simulated-time driven), the span tracer
(wall-clock, diagnostics only), the phase accumulator that turns the
per-job Monitor/Decider/Actuator timings into one aggregated span per
controller tick, and the causal provenance record with its wait-time
blame.  It knows how to export all of it to a directory that
``repro trace`` can read back.

:data:`NULL_TELEMETRY` is the disabled singleton: every hook is a no-op
and the controller/policies pay only an attribute lookup and a call, so
runs without telemetry stay at seed performance.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Union

from ..core.state import ForkState
from .blame import BlameAccumulator
from .export import metrics_csv, metrics_jsonl, prometheus_text
from .provenance import (
    DEFAULT_MAX_PROV_ENTRIES,
    NULL_PROVENANCE,
    ProvenanceLog,
    lifecycle_jsonl,
)
from .registry import MetricsRegistry
from .tracing import SpanTracer

__all__ = ["NULL_TELEMETRY", "NullTelemetry", "Telemetry"]

#: Wait/response-time bucket edges (seconds): sub-minute to a day.
TIME_BUCKETS_S = (30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0,
                  7200.0, 14400.0, 43200.0, 86400.0)

#: Resize-magnitude bucket edges (MB; integers, ledger units).
RESIZE_BUCKETS_MB = (256, 1024, 4096, 16384, 65536, 262144)

#: Default simulated-time sampling cadence — the paper's 5-minute
#: monitoring interval.
DEFAULT_SAMPLE_INTERVAL = 300.0


class _PhaseTimer:
    """Accumulates one phase's wall time into the tick accumulator."""

    __slots__ = ("acc", "name", "t0")

    def __init__(self, acc: Dict[str, List[float]], name: str):
        self.acc = acc
        self.name = name

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        dt = perf_counter() - self.t0
        row = self.acc.get(self.name)
        if row is None:
            self.acc[self.name] = [1, dt]
        else:
            row[0] += 1
            row[1] += dt
        return False


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class Telemetry:
    """Observability for one simulation run.

    A what-if fork rolls back the deterministic state (registry,
    provenance, blame, metadata).  The span tracer is wall-clock
    diagnostics: a fork keeps accumulating into it.
    """

    enabled = True

    fork_state = ForkState(
        copies=("meta",),
        nested=("_phase_acc",),
        objects=("registry", "provenance", "blame"),
        fixed=("sample_interval", "tracer"),
    )

    def __init__(
        self,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
        trace_spans: bool = True,
        provenance: bool = True,
        max_prov_entries: Optional[int] = DEFAULT_MAX_PROV_ENTRIES,
    ):
        if sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {sample_interval}"
            )
        self.sample_interval = sample_interval
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer() if trace_spans else None
        #: causal event graph + wait-time blame (``repro explain``);
        #: ``provenance=False`` keeps the shared disabled singleton
        if provenance:
            self.provenance = ProvenanceLog(max_entries=max_prov_entries)
            self.blame: Optional[BlameAccumulator] = BlameAccumulator()
        else:
            self.provenance = NULL_PROVENANCE
            self.blame = None
        #: run metadata stamped by ``simulate`` (policy, system, summary)
        self.meta: Dict[str, object] = {}
        self._phase_acc: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Metric hooks (deterministic; simulated-time driven)
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        self.registry.inc(name, n)

    def observe_time(self, name: str, seconds: float) -> None:
        self.registry.observe(name, seconds, TIME_BUCKETS_S)

    def observe_resize(self, mb: int) -> None:
        self.registry.observe("resize_mb", mb, RESIZE_BUCKETS_MB)

    def sample_cluster(self, now: float, controller) -> None:
        """Record the gauge set and append one time-series row block.

        All cluster-side values are O(1) reads of the columnar store's
        incremental aggregates — sampling never scans the node arrays.
        """
        reg = self.registry
        c = controller.cluster
        reg.set_gauge("pool_free_local_mb", c.free_local_total, now)
        reg.set_gauge("pool_lent_mb", c.lent_total, now)
        reg.set_gauge("pool_local_used_mb", c.local_used_total, now)
        reg.set_gauge("queue_depth", len(controller.pending), now)
        reg.set_gauge("running_jobs", len(controller.running), now)
        reg.set_gauge("memory_node_count", c.memory_node_count, now)
        reg.set_gauge("busy_nodes", c.busy_count, now)
        reg.set_gauge("startable_nodes", c.startable_count, now)
        # Delta-log overflows force full index re-sorts; a non-zero rate
        # here says FREE_LOG_LIMIT is undersized for the workload.
        reg.set_gauge("free_log_overflows", c.free_log_overflows, now)
        pool = getattr(controller.policy, "pool", None)
        if pool is not None:
            reg.set_gauge(
                "free_index_rebuilds",
                pool.free_index.rebuilds + pool.bestfit_index.rebuilds,
                now,
            )
            reg.set_gauge(
                "free_index_repairs",
                pool.free_index.repairs + pool.bestfit_index.repairs,
                now,
            )
        reg.sample(now)

    # ------------------------------------------------------------------
    # Span/phase hooks (wall clock; diagnostics only)
    # ------------------------------------------------------------------
    def span(self, name: str, sim_t: float, jid: Optional[int] = None,
             detail: str = ""):
        if self.tracer is None:
            return _NULL_CONTEXT
        return self.tracer.span(name, sim_t, jid, detail)

    def phase(self, name: str):
        """Accumulate one (per-job) phase timing into the current tick."""
        if self.tracer is None:
            return _NULL_CONTEXT
        return _PhaseTimer(self._phase_acc, name)

    def flush_phases(self, sim_t: float, prefix: str) -> None:
        """Emit one aggregated span per accumulated phase and reset."""
        if self.tracer is None or not self._phase_acc:
            self._phase_acc.clear()
            return
        for name in sorted(self._phase_acc):
            count, total = self._phase_acc[name]
            self.tracer.add(f"{prefix}.{name}", sim_t, total, int(count))
        self._phase_acc.clear()

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def finish(self, result) -> None:
        """Stamp end-of-run metadata (called by ``simulate``)."""
        self.meta.setdefault("policy", result.policy)
        self.meta["summary"] = result.summary()
        self.meta["events_processed"] = result.events_processed

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, directory: Union[str, Path]) -> Path:
        """Write the run's telemetry into ``directory`` and return it.

        Files: ``metrics.jsonl`` / ``metrics.csv`` / ``metrics.prom``
        (deterministic registry dumps), ``spans.jsonl`` (wall-clock
        spans), ``provenance.jsonl`` / ``events.jsonl`` / ``blame.json``
        (causal graph, its job-lifecycle view, wait-time attribution;
        when provenance is enabled), ``meta.json``.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "metrics.jsonl").write_text(metrics_jsonl(self.registry))
        (directory / "metrics.csv").write_text(metrics_csv(self.registry))
        (directory / "metrics.prom").write_text(prometheus_text(self.registry))
        if self.tracer is not None:
            (directory / "spans.jsonl").write_text(self.tracer.to_jsonl())
        if self.provenance.enabled:
            (directory / "provenance.jsonl").write_text(
                self.provenance.to_jsonl()
            )
            (directory / "events.jsonl").write_text(
                lifecycle_jsonl(self.provenance)
            )
            # `repro trace --job` detects ring-buffer truncation from
            # the drop count (an absent key reads as untruncated).
            self.meta["provenance_events"] = self.provenance.next_eid
            self.meta["provenance_dropped"] = self.provenance.dropped
        if self.blame is not None:
            (directory / "blame.json").write_text(
                json.dumps(self.blame.to_dict(), indent=2, sort_keys=True)
                + "\n"
            )
        (directory / "meta.json").write_text(
            json.dumps(self.meta, indent=2, sort_keys=True, default=str) + "\n"
        )
        return directory


class NullTelemetry(Telemetry):
    """Disabled telemetry: every hook is a cheap no-op."""

    enabled = False

    #: the shared singleton never changes, so it declares no state
    fork_state = ForkState(fixed=Telemetry.fork_state.names)

    def __init__(self) -> None:
        super().__init__(trace_spans=False, provenance=False)
        self.tracer = None

    def inc(self, name: str, n: int = 1) -> None:
        pass

    def observe_time(self, name: str, seconds: float) -> None:
        pass

    def observe_resize(self, mb: int) -> None:
        pass

    def sample_cluster(self, now: float, controller) -> None:
        pass

    def span(self, name, sim_t, jid=None, detail=""):
        return _NULL_CONTEXT

    def phase(self, name):
        return _NULL_CONTEXT

    def flush_phases(self, sim_t, prefix) -> None:
        pass

    def finish(self, result) -> None:
        pass


#: Shared disabled instance (controllers default to this).
NULL_TELEMETRY = NullTelemetry()
