"""Workload and result serialisation.

Generated workloads are valuable artifacts (the paper publishes its
traces); this module round-trips them as (optionally gzipped) JSON so a
trace generated once can be re-simulated, shared, or diffed.  Simulation
results export to JSON and per-job CSV for external analysis.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import io as _io
import json
import math
import numbers
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.errors import TraceError
from ..jobs.job import Job
from ..jobs.usage import UsageTrace
from ..metrics.records import SimulationResult
from ..slowdown.profiles import AppProfile
from .workload import Workload

#: Schema version written into every file; bumped on breaking changes.
SCHEMA_VERSION = 1

PathLike = Union[str, Path]


def _open_write(path: PathLike):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _open_read(path: PathLike):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


# ----------------------------------------------------------------------
# Workload <-> JSON
# ----------------------------------------------------------------------
def workload_to_dict(workload: Workload) -> Dict:
    """Plain-dict form of a workload (JSON-ready)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "repro-workload",
        "meta": {k: _jsonable(v) for k, v in workload.meta.items()},
        "profiles": [
            {
                "name": p.name,
                "bw_demand_gbps": p.bw_demand_gbps,
                "remote_sensitivity": p.remote_sensitivity,
                "contention_sensitivity": p.contention_sensitivity,
                "read_write_ratio": p.read_write_ratio,
                "typical_nodes": p.typical_nodes,
                "typical_runtime": p.typical_runtime,
            }
            for p in workload.profiles
        ],
        "jobs": [
            {
                "jid": j.jid,
                "submit_time": j.submit_time,
                "n_nodes": j.n_nodes,
                "base_runtime": j.base_runtime,
                "walltime_limit": j.walltime_limit,
                "mem_request_mb": j.mem_request_mb,
                "profile": j.profile,
                "user": j.user,
                "usage_times": [float(t) for t in j.usage.times],
                "usage_mem_mb": [int(m) for m in j.usage.mem_mb],
                "node_scale": (
                    list(j.node_scale) if j.node_scale is not None else None
                ),
            }
            for j in workload.jobs
        ],
    }


#: Keys every job entry of a workload file must carry (the others
#: default: ``profile`` and ``user`` to 0, ``node_scale`` to ``None``).
_REQUIRED_JOB_KEYS = ("jid", "submit_time", "n_nodes", "base_runtime",
                      "walltime_limit", "mem_request_mb", "usage_times",
                      "usage_mem_mb")


def workload_from_dict(data: Dict) -> Workload:
    """Inverse of :func:`workload_to_dict` (validates the schema)."""
    if data.get("kind") != "repro-workload":
        raise TraceError(f"not a workload file (kind={data.get('kind')!r})")
    if data.get("schema") != SCHEMA_VERSION:
        raise TraceError(
            f"unsupported workload schema {data.get('schema')}, "
            f"expected {SCHEMA_VERSION}"
        )
    profiles = _profiles_of(data["profiles"])
    records = data["jobs"]
    if not isinstance(records, list):
        raise TraceError(
            f"field 'jobs' is a {type(records).__name__}, not a list of jobs"
        )
    jobs: List[Job] = []
    # job id -> index of the job that has it
    first: Dict[int, int] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise TraceError(
                f"job #{i} of field 'jobs' is a {type(rec).__name__}, not a "
                "mapping of fields"
            )
        missing = [key for key in _REQUIRED_JOB_KEYS if key not in rec]
        if missing:
            raise TraceError(
                f"job {rec.get('jid', f'#{i}')}: required key "
                f"{missing[0]!r} is missing"
            )
        jid = rec["jid"]
        job = Job(
            jid=jid,
            submit_time=rec["submit_time"],
            n_nodes=rec["n_nodes"],
            base_runtime=rec["base_runtime"],
            walltime_limit=rec["walltime_limit"],
            mem_request_mb=rec["mem_request_mb"],
            profile=rec.get("profile", 0),
            user=rec.get("user", 0),
            usage=_usage_of(jid, rec),
            node_scale=_node_scale_of(jid, rec),
        )
        if first.setdefault(job.jid, i) != i:
            raise TraceError(
                f"job {jid}: field 'jid' repeats the id of job "
                f"#{first[job.jid]}"
            )
        if job.profile >= len(profiles):
            raise TraceError(
                f"job {jid}: field 'profile' = {job.profile} is out of "
                f"range for {len(profiles)} profiles"
            )
        jobs.append(job)
    return Workload(jobs=jobs, profiles=profiles, meta=dict(data.get("meta", {})))


#: Fields of a profile entry, in :class:`AppProfile` order: a ``name``,
#: then the numbers the contention model and job matching read.
_PROFILE_FIELDS = tuple(f.name for f in dataclasses.fields(AppProfile))


def _profiles_of(entries) -> List[AppProfile]:
    """The ``profiles`` field as profiles; an error names the entry
    (``profiles[i]``) and the field."""
    if not isinstance(entries, list):
        raise TraceError(
            f"field 'profiles' is a {type(entries).__name__}, not a list of "
            "profiles"
        )
    profiles = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise TraceError(
                f"profiles[{i}] is a {type(entry).__name__}, not a mapping "
                "of fields"
            )
        missing = [key for key in _PROFILE_FIELDS if key not in entry]
        if missing:
            raise TraceError(
                f"profiles[{i}]: required field {missing[0]!r} is missing")
        unknown = [key for key in entry if key not in _PROFILE_FIELDS]
        if unknown:
            raise TraceError(f"profiles[{i}]: unknown field {unknown[0]!r}")
        for key in _PROFILE_FIELDS[1:]:
            value = entry[key]
            # Pricing reads them only once a job borrows remote memory,
            # so a bad value would surface mid-run, or never.
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise TraceError(
                    f"profiles[{i}]: field {key!r} = {value!r} is not a "
                    "finite non-negative number"
                )
        profiles.append(AppProfile(**entry))
    return profiles


def _usage_of(jid, rec: Dict) -> UsageTrace:
    """A job entry's usage trace; an error names the job and the fields."""
    try:
        return UsageTrace(rec["usage_times"], rec["usage_mem_mb"])
    except (TraceError, TypeError, ValueError, OverflowError) as exc:
        raise TraceError(
            f"job {jid}: fields 'usage_times' and 'usage_mem_mb' are not a "
            f"usage trace: {exc}"
        ) from None


def _node_scale_of(jid, rec: Dict) -> Optional[tuple]:
    scale = rec.get("node_scale")
    if scale is None:
        return None
    if not isinstance(scale, list):
        raise TraceError(
            f"job {jid}: field 'node_scale' = {scale!r} is not a list"
        )
    return tuple(scale)


def save_workload(workload: Workload, path: PathLike) -> None:
    """Write a workload as JSON (gzipped when the path ends in .gz)."""
    with _open_write(path) as fh:
        json.dump(workload_to_dict(workload), fh)


def load_workload(path: PathLike) -> Workload:
    """Read a workload written by :func:`save_workload`."""
    with _open_read(path) as fh:
        return workload_from_dict(json.load(fh))


# ----------------------------------------------------------------------
# SimulationResult -> JSON / CSV
# ----------------------------------------------------------------------
def result_to_dict(result: SimulationResult) -> Dict:
    """JSON-ready summary plus per-job records of a simulation result."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "repro-result",
        "policy": result.policy,
        "summary": result.summary(),
        "unrunnable": list(result.unrunnable),
        "records": [
            {
                "jid": r.jid,
                "n_nodes": r.n_nodes,
                "submit_time": r.submit_time,
                "start_time": r.start_time,
                "finish_time": r.finish_time,
                "base_runtime": r.base_runtime,
                "actual_runtime": r.actual_runtime,
                "mem_request_mb": r.mem_request_mb,
                "peak_usage_mb": r.peak_usage_mb,
                "restarts": r.restarts,
                "state": r.state.value,
            }
            for r in result.records
        ],
    }


def save_result(result: SimulationResult, path: PathLike) -> None:
    with _open_write(path) as fh:
        json.dump(result_to_dict(result), fh)


RESULT_CSV_FIELDS = (
    "jid", "n_nodes", "submit_time", "start_time", "finish_time",
    "base_runtime", "actual_runtime", "response_time", "wait_time",
    "mem_request_mb", "peak_usage_mb", "restarts", "state",
)


def result_records_csv(result: SimulationResult) -> str:
    """Per-job records as CSV text (one row per finished job)."""
    buf = _io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RESULT_CSV_FIELDS)
    writer.writeheader()
    for r in result.records:
        writer.writerow(
            {
                "jid": r.jid,
                "n_nodes": r.n_nodes,
                "submit_time": r.submit_time,
                "start_time": r.start_time,
                "finish_time": r.finish_time,
                "base_runtime": r.base_runtime,
                "actual_runtime": r.actual_runtime,
                "response_time": r.response_time,
                "wait_time": r.wait_time,
                "mem_request_mb": r.mem_request_mb,
                "peak_usage_mb": r.peak_usage_mb,
                "restarts": r.restarts,
                "state": r.state.value,
            }
        )
    return buf.getvalue()


def _jsonable(value):
    """Coerce metadata values to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
