"""Telemetry exporters: JSONL, CSV, Prometheus text format.

All three dumps are deterministic functions of the registry content
(sorted metric names, stable float formatting via ``json.dumps`` /
``repr``), which is what makes the serial-vs-parallel byte-identity
guarantee checkable with a plain string comparison.

:func:`parse_prometheus_text` is a deliberately strict mini-parser used
by the tests and the ``make obs-smoke`` target to assert the dump is
well-formed — it is not a general Prometheus client.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Tuple

from .registry import MetricsRegistry

__all__ = [
    "metrics_csv",
    "metrics_jsonl",
    "parse_prometheus_text",
    "prometheus_text",
    "sanitize_metric_name",
    "series_of",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+infna]+)$"
)


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """Prometheus-legal metric name (labels are not used; slashes and
    other separators become underscores)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    full = f"{prefix}_{cleaned}" if prefix else cleaned
    if not _NAME_OK.match(full):
        full = "_" + full
    return full


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def metrics_jsonl(registry: MetricsRegistry) -> str:
    """One JSON object per line: counters, gauges, histograms, samples."""
    lines: List[str] = []
    for name in sorted(registry.counters):
        lines.append(json.dumps(
            {"type": "counter", "name": name,
             "value": registry.counters[name].value}))
    for name in sorted(registry.gauges):
        g = registry.gauges[name]
        lines.append(json.dumps(
            {"type": "gauge", "name": name, "value": g.value,
             "last_t": g.last_t}))
    for name in sorted(registry.histograms):
        h = registry.histograms[name]
        lines.append(json.dumps(
            {"type": "histogram", "name": name, "bounds": list(h.bounds),
             "counts": list(h.counts), "sum": h.total, "count": h.count}))
    for t, name, value in registry.series:
        lines.append(json.dumps(
            {"type": "sample", "t": t, "name": name, "value": value}))
    return "".join(line + "\n" for line in lines)


# ----------------------------------------------------------------------
# CSV (time series; tidy long format for plotting)
# ----------------------------------------------------------------------
def metrics_csv(registry: MetricsRegistry) -> str:
    """``t,name,value`` rows of the sampled series (header included)."""
    lines = ["t,name,value"]
    for t, name, value in registry.series:
        lines.append(f"{t!r},{name},{value!r}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def prometheus_text(registry: MetricsRegistry, prefix: str = "repro") -> str:
    """Counters/gauges/histograms in Prometheus text format 0.0.4.

    The sampled time series is not part of this dump (Prometheus scrapes
    are point-in-time); use the JSONL/CSV exports for series.
    """
    out: List[str] = []
    for name in sorted(registry.counters):
        pname = sanitize_metric_name(name, prefix) + "_total"
        out.append(f"# TYPE {pname} counter")
        out.append(f"{pname} {registry.counters[name].value}")
    for name in sorted(registry.gauges):
        pname = sanitize_metric_name(name, prefix)
        out.append(f"# TYPE {pname} gauge")
        out.append(f"{pname} {_fmt(registry.gauges[name].value)}")
    for name in sorted(registry.histograms):
        h = registry.histograms[name]
        pname = sanitize_metric_name(name, prefix)
        out.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for edge, count in zip(h.bounds, h.counts):
            cumulative += count
            out.append(f'{pname}_bucket{{le="{_fmt(edge)}"}} {cumulative}')
        cumulative += h.counts[-1]
        out.append(f'{pname}_bucket{{le="+Inf"}} {cumulative}')
        out.append(f"{pname}_sum {_fmt(h.total)}")
        out.append(f"{pname}_count {h.count}")
    return "".join(line + "\n" for line in out)


def _fmt(value: float) -> str:
    """Stable scalar formatting: integers without the trailing ``.0``."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a text-format dump into ``{sample name[+labels]: value}``.

    Raises :class:`ValueError` on any malformed line; the obs smoke test
    uses this to assert the exporter's output stays well-formed.
    """
    samples: Dict[str, float] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                raise ValueError(f"line {lineno}: malformed TYPE line {line!r}")
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample line {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            samples[name + labels] = float(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {value!r}") from exc
        base = re.sub(r"_(total|bucket|sum|count)$", "", name)
        if base not in typed and name not in typed:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding TYPE line"
            )
    return samples


# ----------------------------------------------------------------------
# Series helpers (timeline integration)
# ----------------------------------------------------------------------
def series_of(registry: MetricsRegistry, name: str) -> Tuple[List[float], List[float]]:
    """(times, values) of one sampled metric, in time order."""
    times: List[float] = []
    values: List[float] = []
    for t, n, v in registry.series:
        if n == name:
            times.append(t)
            values.append(v)
    return times, values
