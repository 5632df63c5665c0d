"""repro.obs — zero-overhead-when-disabled observability.

Six pieces (see ``docs/OBSERVABILITY.md``):

* :mod:`~repro.obs.registry` — deterministic, pickle-safe metrics
  (``Counter`` / ``Gauge`` / ``Histogram``) sampled on a simulated-time
  cadence into time series; parallel workers merge child registries into
  the parent bit-identically.
* :mod:`~repro.obs.layers` — the wall-clock layer table (calls, total,
  self and max time per simulator layer), timed from outside the
  simulator for the duration of each observed engine run.
* :mod:`~repro.obs.provenance` — the causal event graph recorded at the
  simulator's decision seams (the run's one event record; its
  job-lifecycle view is ``events.jsonl``), plus :mod:`~repro.obs.blame`
  — per-job wait-time attribution (``repro explain``).
* :mod:`~repro.obs.diff` — run-divergence bisection between two
  exported runs (``repro diff A B``).
* :mod:`~repro.obs.perfetto` — Chrome trace-event export for the
  Perfetto UI (``repro trace DIR --perfetto out.json``).
* :mod:`~repro.obs.export` — JSONL, CSV and Prometheus text dumps.

The facade is :class:`~repro.obs.telemetry.Telemetry`; pass one to
``simulate(..., telemetry=...)`` or use the CLI flags
(``repro simulate --telemetry DIR``, ``repro trace DIR``,
``repro campaign ... --telemetry DIR``).
"""

from .blame import WAIT_COMPONENTS, BlameAccumulator
from .console import Console, console
from .diff import diff_runs, render_diff
from .export import (
    metrics_csv,
    metrics_jsonl,
    parse_prometheus_text,
    prometheus_text,
)
from .layers import LAYER_POINTS, LayerTimer
from .perfetto import perfetto_events, write_perfetto
from .provenance import (
    NULL_PROVENANCE,
    NullProvenance,
    ProvenanceLog,
    causal_chain,
    lifecycle_rows,
    load_provenance,
)
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .report import (
    load_blame,
    render_explain,
    render_job_trace,
    render_trace_summary,
)
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = [
    "BlameAccumulator",
    "Console",
    "Counter",
    "Gauge",
    "Histogram",
    "LAYER_POINTS",
    "LayerTimer",
    "MetricsRegistry",
    "NULL_PROVENANCE",
    "NULL_TELEMETRY",
    "NullProvenance",
    "NullTelemetry",
    "ProvenanceLog",
    "Telemetry",
    "WAIT_COMPONENTS",
    "causal_chain",
    "console",
    "diff_runs",
    "lifecycle_rows",
    "load_blame",
    "load_provenance",
    "metrics_csv",
    "metrics_jsonl",
    "parse_prometheus_text",
    "perfetto_events",
    "prometheus_text",
    "render_diff",
    "render_explain",
    "render_job_trace",
    "render_trace_summary",
    "write_perfetto",
]
