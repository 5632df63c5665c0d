"""Human-readable reports over an exported telemetry directory.

``repro trace DIR`` renders these views of a directory written by
:meth:`repro.obs.telemetry.Telemetry.export`:

* a run summary — counters, histogram digests, per-event-kind counts,
  and the top-N layers of the wall-clock layer table by self time;
* a per-job lifecycle reconstruction ("explain job N") from
  ``events.jsonl`` (the job-lifecycle view of the provenance record),
  with queue-wait / runtime / response-time derived in place.

Every file of the directory layout is optional, so the same command
also works on a merged campaign telemetry directory (metrics only, no
layer table or events).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .blame import WAIT_COMPONENTS
from .layers import ROOT
from .provenance import causal_chain, load_provenance, render_row

__all__ = [
    "load_blame",
    "load_events",
    "load_layers",
    "load_meta",
    "load_metrics_records",
    "render_explain",
    "render_job_trace",
    "render_trace_summary",
    "samples_by_name",
]

PathLike = Union[str, Path]

#: Run-summary keys worth a header line (shown when present).
_SUMMARY_KEYS = (
    "n_jobs",
    "makespan_s",
    "throughput_jobs_per_s",
    "median_response_s",
    "oom_kills",
    "unrunnable",
)


def _read_jsonl(path: Path) -> List[Dict]:
    if not path.exists():
        return []
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def load_metrics_records(directory: PathLike) -> List[Dict]:
    """Parsed ``metrics.jsonl`` records (empty list if absent)."""
    return _read_jsonl(Path(directory) / "metrics.jsonl")


def load_layers(directory: PathLike) -> List[Dict]:
    """Layer-table rows from ``spans.jsonl`` (empty list if absent)."""
    return _read_jsonl(Path(directory) / "spans.jsonl")


def load_events(directory: PathLike) -> List[Dict]:
    """Job-lifecycle rows from ``events.jsonl`` (empty if absent)."""
    return _read_jsonl(Path(directory) / "events.jsonl")


def load_meta(directory: PathLike) -> Dict:
    """Run metadata from ``meta.json`` (empty dict if absent)."""
    path = Path(directory) / "meta.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def load_blame(directory: PathLike) -> Dict:
    """Wait-blame decomposition from ``blame.json`` (empty if absent)."""
    path = Path(directory) / "blame.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def samples_by_name(
    records: Sequence[Dict],
) -> Dict[str, Tuple[List[float], List[float]]]:
    """``{name: (times, values)}`` of the sampled-series records."""
    out: Dict[str, Tuple[List[float], List[float]]] = {}
    for rec in records:
        if rec.get("type") == "sample":
            times, values = out.setdefault(rec["name"], ([], []))
            times.append(float(rec["t"]))
            values.append(float(rec["value"]))
    return out


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Minimal aligned text table (first column left, rest right)."""
    cells = [[str(h) for h in headers]]
    cells += [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def fmt(row: Sequence[str]) -> str:
        cols = [row[0].ljust(widths[0])]
        cols += [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        return "  ".join(cols).rstrip()

    lines = [fmt(cells[0]), fmt(["-" * w for w in widths])]
    lines += [fmt(row) for row in cells[1:]]
    return "\n".join(lines)


def render_trace_summary(directory: PathLike, top: int = 10) -> str:
    """Run summary of a telemetry directory, ready to print."""
    directory = Path(directory)
    records = load_metrics_records(directory)
    meta = load_meta(directory)
    layers = load_layers(directory)
    events = load_events(directory)

    parts: List[str] = []
    header = f"telemetry: {directory}"
    if meta.get("policy"):
        header += f"  (policy: {meta['policy']})"
    parts.append(header)
    summary = meta.get("summary") or {}
    shown = [
        f"{k}={summary[k]:.6g}" if isinstance(summary[k], float)
        else f"{k}={summary[k]}"
        for k in _SUMMARY_KEYS if k in summary
    ]
    if shown:
        parts.append("  " + "  ".join(shown))
    if meta.get("events_processed") is not None:
        parts.append(f"  engine events processed: {meta['events_processed']}")

    counters = sorted(
        (r["name"], r["value"]) for r in records if r["type"] == "counter"
    )
    if counters:
        parts += ["", "counters", _table(["name", "value"], counters)]

    hists = sorted(
        (r for r in records if r["type"] == "histogram"),
        key=lambda r: r["name"],
    )
    if hists:
        rows = []
        for r in hists:
            mean = r["sum"] / r["count"] if r["count"] else 0.0
            rows.append(
                [r["name"], r["count"], f"{mean:.1f}", f"{r['sum']:.1f}"]
            )
        parts += ["", "histograms",
                  _table(["name", "count", "mean", "sum"], rows)]

    if events:
        counts: Dict[str, int] = {}
        for e in events:
            counts[e["event"]] = counts.get(e["event"], 0) + 1
        parts += ["", f"event log: {len(events)} entries",
                  _table(["event", "count"], sorted(counts.items()))]

    if layers:
        layers = sorted(layers, key=lambda r: (-r["self_s"], r["name"]))
        run_s = next((r["total_s"] for r in layers if r["name"] == ROOT), 0.0)
        rows = [
            [r["name"], r["calls"], f"{r['total_s'] * 1e3:.2f}",
             f"{r['self_s'] * 1e3:.2f}",
             f"{100.0 * r['self_s'] / run_s:.1f}%" if run_s else "",
             f"{r['max_s'] * 1e3:.3f}"]
            for r in layers[:top]
        ]
        parts += [
            "",
            f"slowest layers (top {len(rows)} of {len(layers)}, by self "
            f"time; share of {ROOT})",
            _table(["layer", "calls", "total ms", "self ms", "share",
                    "max ms"], rows),
        ]
    else:
        parts += ["", "no layer table recorded "
                      "(trace_spans=False, or a campaign metrics dump)"]
    return "\n".join(parts)


def _first(events: Sequence[Dict], kind: str) -> Optional[float]:
    for e in events:
        if e["event"] == kind:
            return float(e["t"])
    return None


def _last(events: Sequence[Dict], kinds: Tuple[str, ...]) -> Optional[float]:
    t: Optional[float] = None
    for e in events:
        if e["event"] in kinds:
            t = float(e["t"])
    return t


def render_job_trace(directory: PathLike, jid: int) -> str:
    """Reconstruct one job's lifecycle from the exported event rows.

    When the provenance ring evicted events (``provenance_dropped`` in
    ``meta.json``), the reconstruction says so up front — an eviction
    can swallow a job's submit/start, and the derived wait/runtime lines
    below would otherwise silently read as authoritative.
    """
    directory = Path(directory)
    dropped = int(load_meta(directory).get("provenance_dropped", 0) or 0)
    events = [e for e in load_events(directory) if e.get("jid") == jid]

    lines = [f"job {jid} lifecycle  ({directory})"]
    if dropped:
        lines.append(f"  [truncated: {dropped} events evicted]")
    if not events:
        if not (directory / "events.jsonl").exists():
            lines.append(
                "  no events.jsonl in this directory (metrics-only dump)"
            )
        else:
            lines.append(
                "  no events recorded for this job (unknown jid, or the "
                "ring buffer dropped its history)"
            )
        return "\n".join(lines)
    if dropped and events[0]["event"] != "submit":
        lines.append(
            "  (lifecycle may be incomplete: this job's history starts "
            f"at '{events[0]['event']}', earlier events were evicted)"
        )

    for e in events:
        detail = f"  {e['detail']}" if e.get("detail") else ""
        lines.append(f"  [{float(e['t']):12.1f}s] {e['event']:<10}{detail}")

    submit = _first(events, "submit")
    start = _first(events, "start")
    end = _last(events, ("finish", "timeout"))
    derived: List[str] = []
    if submit is not None and start is not None:
        derived.append(f"waited {start - submit:.1f}s in queue")
    if start is not None and end is not None:
        derived.append(f"ran {end - start:.1f}s")
    if submit is not None and end is not None:
        derived.append(f"response time {end - submit:.1f}s")
    n_resize = sum(1 for e in events if e["event"] == "resize")
    if n_resize:
        derived.append(f"{n_resize} resize(s)")
    n_oom = sum(1 for e in events if e["event"] == "oom-kill")
    if n_oom:
        derived.append(f"{n_oom} OOM restart(s)")
    if derived:
        lines.append("  -> " + "; ".join(derived))
    return "\n".join(lines)


def render_explain(directory: PathLike, jid: int, chain_limit: int = 20) -> str:
    """Causal "why" report for one job: lifecycle, blame, ancestry.

    ``repro explain DIR JID`` answers "why did job N wait / run slow?"
    from the exported artifacts alone: the job's lifecycle, the
    wait-time blame decomposition (components sum to the recorded
    wait), the latest slowdown decomposition with per-lender contention
    contributions, and the causal why-chain walked back through the
    provenance graph from the job's last event.
    """
    directory = Path(directory)
    lines = [render_job_trace(directory, jid)]

    blame = load_blame(directory)
    job_blame = (blame.get("jobs") or {}).get(str(jid))
    if job_blame:
        total = float(job_blame.get("total_wait_s", 0.0))
        comps = job_blame.get("wait", {})
        rows = []
        for name in blame.get("components", WAIT_COMPONENTS):
            sec = float(comps.get(name, 0.0))
            pct = 100.0 * sec / total if total > 0 else 0.0
            rows.append([name, f"{sec:.1f}", f"{pct:.1f}%"])
        rows.append(["= sum", f"{sum(float(v) for v in comps.values()):.1f}",
                     ""])
        rows.append(["recorded wait", f"{total:.1f}", ""])
        lines += [
            "",
            f"wait-time blame (job {jid} waited {total:.1f}s in total)",
            _table(["cause", "seconds", "share"], rows),
        ]
    elif blame:
        lines += ["", f"no wait-blame recorded for job {jid}"]
    else:
        lines += ["", "no blame.json in this directory "
                      "(run exported without provenance)"]

    prov = load_provenance(directory)
    job_rows = [r for r in prov if r.get("jid") == jid]
    slowdowns = [r for r in job_rows if r["kind"] == "slowdown"]
    if slowdowns:
        data = slowdowns[-1].get("data", {})
        s = data.get("new", data.get("slowdown"))
        lines += ["", "latest slowdown decomposition"
                      + (f" (slowdown {float(s):.3f}x)" if s is not None
                         else "")]
        if data.get("base_remote") is not None:
            lines.append(
                f"  base remote-placement term: "
                f"+{float(data['base_remote']):.4f}"
            )
        lenders = data.get("lenders") or []
        if lenders:
            rows = [
                [f"lender {entry['lender']}", entry["mb"],
                 f"{float(entry['oversubscription']):.3f}",
                 f"+{float(entry['contribution']):.4f}"]
                for entry in lenders
            ]
            lines.append(_table(
                ["lender", "MB", "oversub", "contribution"], rows
            ))

    if job_rows:
        last_eid = int(job_rows[-1]["eid"])
        chain, missing = causal_chain(prov, last_eid, limit=chain_limit)
        lines += [
            "",
            f"causal why-chain (walk-back from event #{last_eid}, "
            f"newest first)",
        ]
        lines += ["  " + render_row(row) for row in chain]
        if missing:
            lines.append(f"  [truncated: {missing} ancestor(s) evicted]")
    elif prov:
        lines += ["", f"no provenance events recorded for job {jid}"]
    return "\n".join(lines)
