"""Perfetto / Chrome trace-event export (repro.obs.perfetto)."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.obs.perfetto import (
    PID_COUNTERS,
    PID_JOBS,
    PID_PROVENANCE,
    perfetto_events,
    perfetto_json,
    write_perfetto,
)
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import simulate
from repro.traces.pipeline import synthetic_workload


def _export_run(directory, seed=0):
    wl = synthetic_workload(n_jobs=15, n_system_nodes=48, seed=seed)
    cfg = SystemConfig.from_memory_level(75, n_nodes=48)
    tel = Telemetry()
    res = simulate(wl.fresh_jobs(), cfg, policy="dynamic",
                   profiles=wl.profiles, telemetry=tel)
    tel.export(directory)
    return res


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("perfetto") / "run"
    res = _export_run(directory)
    return directory, res


def test_document_shape_and_metadata(run_dir):
    directory, _ = run_dir
    doc = json.loads(perfetto_json(directory))
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    assert doc["otherData"]["policy"] == "dynamic"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert events[: len(meta)] == meta  # metadata leads
    assert {m["args"]["name"] for m in meta} >= {"jobs", "provenance",
                                                 "counters"}


def test_every_finished_job_has_run_slice(run_dir):
    directory, res = run_dir
    events = perfetto_events(directory)
    run_slices = {
        e["tid"]: e for e in events
        if e["pid"] == PID_JOBS and e["ph"] == "X" and e["name"] == "run"
    }
    for rec in res.records:
        if rec.finish_time is None or rec.restarts:
            continue
        slc = run_slices[rec.jid]
        # The slice reconstructs the record's start/runtime in µs.
        assert slc["ts"] == int(round(rec.start_time * 1e6))
        span = int(round(rec.finish_time * 1e6)) - slc["ts"]
        assert slc["dur"] == max(span, 1)


def test_wait_slices_precede_their_run_slices(run_dir):
    directory, _ = run_dir
    events = perfetto_events(directory)
    by_job = {}
    for e in events:
        if e["pid"] == PID_JOBS and e["ph"] == "X":
            by_job.setdefault(e["tid"], {})[e["name"]] = e
    waited = [v for v in by_job.values() if "wait" in v and "run" in v]
    assert waited
    for v in waited:
        assert v["wait"]["ts"] + v["wait"]["dur"] == v["run"]["ts"]


def test_provenance_instants_carry_lineage(run_dir):
    directory, _ = run_dir
    events = perfetto_events(directory)
    prov = [e for e in events
            if e["pid"] == PID_PROVENANCE and e["ph"] != "M"]
    assert prov
    assert all(e["ph"] == "i" and "eid" in e["args"] for e in prov)
    assert any("parents" in e["args"] for e in prov)


def test_counters_and_spans_present(run_dir):
    directory, _ = run_dir
    events = perfetto_events(directory)
    counters = {e["name"] for e in events if e["pid"] == PID_COUNTERS}
    assert "queue_depth" in counters


def test_export_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    _export_run(a)
    _export_run(b)
    # Re-exporting the same directory is byte-identical, and so are the
    # documents of identical-seed runs: the export reads no wall clock.
    assert perfetto_json(a) == perfetto_json(a)
    assert perfetto_json(a) == perfetto_json(b)


def test_write_perfetto_paths(run_dir, tmp_path):
    directory, _ = run_dir
    default = write_perfetto(directory)
    assert default == directory / "trace.perfetto.json"
    custom = write_perfetto(directory, tmp_path / "deep" / "t.json")
    assert custom.exists()
    assert custom.read_text() == default.read_text()
    json.loads(custom.read_text())  # valid JSON document
