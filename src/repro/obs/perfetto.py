"""Perfetto / Chrome trace-event export of a telemetry directory.

``repro trace DIR --perfetto out.json`` converts a run's exported
telemetry into the Chrome trace-event JSON format that Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` load natively:

* **jobs** process — one track per job: a ``wait`` slice from submit to
  start, a ``run`` slice from start to finish/timeout/OOM, and instant
  markers for resizes and OOM kills (from ``events.jsonl``);
* **provenance** process — every causal event as an instant carrying
  its ``eid``/``parents``/payload in ``args`` (from
  ``provenance.jsonl``);
* **counter** tracks — the sampled gauge series (queue depth, pool
  occupancy, ...) as ``ph: "C"`` counters (from ``metrics.jsonl``).

Timestamps are simulated seconds scaled to microseconds, so the
Perfetto timeline reads directly in simulated time.  The dump reads no
wall-clock data and is deterministic (stable sort, sorted keys):
identical-seed runs export identical documents.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from .provenance import load_provenance
from .report import (
    load_events,
    load_meta,
    load_metrics_records,
    samples_by_name,
)

__all__ = ["perfetto_events", "perfetto_json", "write_perfetto"]

PathLike = Union[str, Path]

#: Synthetic process ids, one per track family.
PID_JOBS = 1
PID_PROVENANCE = 2
PID_COUNTERS = 3

_PROCESS_NAMES = {
    PID_JOBS: "jobs",
    PID_PROVENANCE: "provenance",
    PID_COUNTERS: "counters",
}

#: Terminal lifecycle markers closing a job's ``run`` slice.
_RUN_END = {"finish": "run", "timeout": "run (timeout)", "oom-kill": "run (oom)"}


def _us(t: float) -> int:
    """Simulated seconds → integer microseconds (trace-event unit)."""
    return int(round(float(t) * 1e6))


def _job_events(events: List[Dict]) -> List[Dict]:
    """Wait/run slices and instants per job from the lifecycle rows."""
    out: List[Dict] = []
    submit_t: Dict[int, float] = {}
    start_t: Dict[int, float] = {}
    for e in events:
        jid = e.get("jid")
        if jid is None:
            continue
        kind = e["event"]
        t = float(e["t"])
        if kind == "submit":
            submit_t[jid] = t
        elif kind == "start":
            sub = submit_t.pop(jid, None)
            if sub is not None and t > sub:
                out.append({
                    "name": "wait", "ph": "X", "pid": PID_JOBS, "tid": jid,
                    "ts": _us(sub), "dur": _us(t) - _us(sub),
                })
            start_t[jid] = t
        elif kind in _RUN_END:
            beg = start_t.pop(jid, None)
            if beg is not None:
                out.append({
                    "name": _RUN_END[kind], "ph": "X",
                    "pid": PID_JOBS, "tid": jid,
                    "ts": _us(beg), "dur": max(_us(t) - _us(beg), 1),
                })
            if kind == "oom-kill":
                # The kill requeues the job: a fresh wait opens here.
                submit_t[jid] = t
                out.append({
                    "name": "oom-kill", "ph": "i", "s": "t",
                    "pid": PID_JOBS, "tid": jid, "ts": _us(t),
                    "args": {"detail": e.get("detail", "")},
                })
        elif kind in ("resize", "unrunnable"):
            out.append({
                "name": kind, "ph": "i", "s": "t",
                "pid": PID_JOBS, "tid": jid, "ts": _us(t),
                "args": {"detail": e.get("detail", "")},
            })
    return out


def _provenance_events(rows: List[Dict]) -> List[Dict]:
    out: List[Dict] = []
    for row in rows:
        args: Dict[str, object] = {"eid": row["eid"]}
        if row.get("parents"):
            args["parents"] = row["parents"]
        if row.get("data"):
            args.update(row["data"])
        out.append({
            "name": row["kind"], "ph": "i", "s": "t",
            "pid": PID_PROVENANCE, "tid": row.get("jid", 0),
            "ts": _us(row["t"]), "args": args,
        })
    return out


def _counter_events(records: List[Dict]) -> List[Dict]:
    out: List[Dict] = []
    for name in sorted(samples := samples_by_name(records)):
        times, values = samples[name]
        for t, v in zip(times, values):
            out.append({
                "name": name, "ph": "C", "pid": PID_COUNTERS, "tid": 0,
                "ts": _us(t), "args": {"value": v},
            })
    return out


def perfetto_events(directory: PathLike) -> List[Dict]:
    """All trace events of one telemetry directory, deterministic order."""
    directory = Path(directory)
    events: List[Dict] = []
    for pid, name in sorted(_PROCESS_NAMES.items()):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    events += _job_events(load_events(directory))
    events += _provenance_events(load_provenance(directory))
    events += _counter_events(load_metrics_records(directory))
    # Stable deterministic order: metadata first, then by time/track.
    events.sort(
        key=lambda e: (e["ph"] != "M", e.get("ts", 0), e["pid"],
                       e.get("tid", 0), e["name"])
    )
    return events


def perfetto_json(directory: PathLike) -> str:
    """The trace-event JSON document for one telemetry directory."""
    meta = load_meta(Path(directory))
    doc = {
        "traceEvents": perfetto_events(directory),
        "displayTimeUnit": "ms",
        "otherData": {"policy": meta.get("policy", "")},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_perfetto(directory: PathLike, out: Optional[PathLike] = None) -> Path:
    """Write ``trace.perfetto.json`` (or ``out``) and return its path."""
    directory = Path(directory)
    path = Path(out) if out is not None else directory / "trace.perfetto.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(perfetto_json(directory))
    return path
