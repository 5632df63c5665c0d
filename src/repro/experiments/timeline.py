"""ASCII schedule timelines.

Renders what the machine was doing over a run: a cluster-occupancy
strip chart from the telemetry gauges sampled on the run's cadence, and
a per-job Gantt chart from the job records.  Both are pure text (no
plotting dependency), used by examples and the CLI for schedule
debugging.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..metrics.records import JobRecord, SimulationResult
from ..obs.export import series_of
from ..obs.registry import MetricsRegistry

#: Glyph ramp for occupancy levels (0% .. 100%).
RAMP = " .:-=+*#%@"


def _ramp_row(
    times: np.ndarray, values: np.ndarray, edges: np.ndarray, scale: float
) -> str:
    """Glyphs of one strip row: each column averages the samples that
    fall in its slice of ``edges`` and shows the mean over ``scale`` on
    the ramp; a column without samples stays blank."""
    width = len(edges) - 1
    idx = np.clip(np.searchsorted(edges, times, side="right") - 1, 0, width - 1)
    chars = []
    for col in range(width):
        mask = idx == col
        if not mask.any():
            chars.append(" ")
            continue
        level = float(values[mask].mean()) / scale if scale > 0 else 0.0
        chars.append(RAMP[min(int(level * (len(RAMP) - 1)), len(RAMP) - 1)])
    return "".join(chars)


def occupancy_strip(
    registry: MetricsRegistry,
    n_nodes: int,
    width: int = 72,
    title: str = "",
) -> str:
    """One-line-per-metric strip chart of CPU and memory occupancy.

    Reads the gauges a :class:`~repro.obs.Telemetry` samples: cpu is
    the busy share of the ``n_nodes`` nodes, and mem the allocated
    (locally used plus lent) share of the memory pool, whose capacity
    follows any what-if expansion.  Each column averages the samples of
    one time slice; the glyph encodes the level on a 10-step ramp.
    """
    times, busy = series_of(registry, "busy_nodes")
    if not times:
        raise ValueError("registry has no sampled occupancy")
    allocated = (
        np.asarray(series_of(registry, "pool_local_used_mb")[1])
        + np.asarray(series_of(registry, "pool_lent_mb")[1])
    )
    free = np.asarray(series_of(registry, "pool_free_local_mb")[1])
    times = np.asarray(times, dtype=float)
    cpu = np.asarray(busy) / n_nodes
    mem = allocated / (allocated + free)
    t0, t1 = float(times[0]), float(times[-1])
    edges = np.linspace(t0, t1, width + 1)

    lines = [title] if title else []
    lines.append(f"cpu |{_ramp_row(times, cpu, edges, 1.0)}|")
    lines.append(f"mem |{_ramp_row(times, mem, edges, 1.0)}|")
    lines.append(f"     {t0:<10.0f}{'':^{max(width - 20, 0)}}{t1:>10.0f}  (s)")
    lines.append(f"ramp: '{RAMP}' = 0%..100%")
    return "\n".join(lines)


def series_strips(
    series: Mapping[str, Tuple[Sequence[float], Sequence[float]]],
    width: int = 72,
    title: str = "",
) -> str:
    """Strip chart of sampled telemetry series, one row per metric.

    ``series`` maps a metric name to its ``(times, values)`` arrays (the
    shape produced by :func:`repro.obs.report.samples_by_name` /
    :func:`repro.obs.export.series_of`).  Each row is normalised by its
    own maximum — the glyph encodes *relative* level on the shared ramp,
    and the row label carries the absolute peak for scale.
    """
    usable = {
        name: (np.asarray(t, dtype=float), np.asarray(v, dtype=float))
        for name, (t, v) in series.items()
        if len(t) > 0
    }
    if not usable:
        raise ValueError("series has no samples")
    t0 = min(float(t[0]) for t, _ in usable.values())
    t1 = max(float(t[-1]) for t, _ in usable.values())
    edges = np.linspace(t0, t1, width + 1)
    label_w = max(len(name) for name in usable)

    lines = [title] if title else []
    for name in sorted(usable):
        times, values = usable[name]
        peak = float(values.max())
        lines.append(
            f"{name.rjust(label_w)} |{_ramp_row(times, values, edges, peak)}|"
            f" max={peak:g}"
        )
    pad = " " * label_w
    lines.append(
        f"{pad}  {t0:<10.0f}{'':^{max(width - 20, 0)}}{t1:>10.0f}  (s)"
    )
    lines.append(f"ramp: '{RAMP}' = 0%..100% of each row's max")
    return "\n".join(lines)


def gantt(
    records: Sequence[JobRecord],
    width: int = 72,
    max_jobs: int = 30,
    title: str = "",
) -> str:
    """Per-job Gantt chart: ``.`` while queued, ``#`` while running.

    Shows up to ``max_jobs`` jobs ordered by submission; wider charts or
    filtered record lists give finer views.
    """
    records = [r for r in records if r.finish_time is not None]
    if not records:
        raise ValueError("no finished jobs to draw")
    records = sorted(records, key=lambda r: (r.submit_time, r.jid))[:max_jobs]
    t0 = min(r.submit_time for r in records)
    t1 = max(r.finish_time for r in records)
    span = max(t1 - t0, 1e-9)

    def col(t: float) -> int:
        return min(int((t - t0) / span * (width - 1)), width - 1)

    id_w = max(len(str(r.jid)) for r in records)
    lines = [title] if title else []
    for r in records:
        row = [" "] * width
        start = r.start_time if r.start_time is not None else r.finish_time
        for c in range(col(r.submit_time), col(start)):
            row[c] = "."
        for c in range(col(start), col(r.finish_time) + 1):
            row[c] = "#"
        marker = f" x{r.restarts}" if r.restarts else ""
        lines.append(f"{str(r.jid).rjust(id_w)} |{''.join(row)}|{marker}")
    lines.append(f"{' ' * id_w}  {t0:<10.0f}{'':^{max(width - 20, 0)}}{t1:>10.0f} (s)")
    lines.append(". queued   # running   xN = OOM restarts")
    return "\n".join(lines)


def render_run(
    result: SimulationResult,
    registry: Optional[MetricsRegistry] = None,
    width: int = 72,
    max_jobs: int = 25,
) -> str:
    """Combined view: occupancy strips (from the run's telemetry
    ``registry``, when it sampled any) plus a Gantt."""
    parts: List[str] = []
    if registry is not None and registry.series:
        parts.append(
            occupancy_strip(registry, result.total_nodes, width=width,
                            title=f"{result.policy}: cluster occupancy")
        )
    parts.append(
        gantt(result.records, width=width, max_jobs=max_jobs,
              title=f"{result.policy}: first {max_jobs} jobs")
    )
    return "\n\n".join(parts)
