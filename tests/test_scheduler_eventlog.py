"""The job-lifecycle event log: the ``events.jsonl`` view of provenance."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.jobs.usage import UsageTrace
from repro.obs.provenance import NULL_PROVENANCE, ProvenanceLog, lifecycle_rows
from repro.obs.report import render_job_trace
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import build_simulation, simulate
from repro.slowdown.model import NullContentionModel
from repro.traces.pipeline import synthetic_workload

from conftest import make_job


def _lifecycle(tel):
    return lifecycle_rows(tel.provenance)


def _of_kind(rows, event):
    return [r for r in rows if r["event"] == event]


def _for_job(rows, jid):
    return [r for r in rows if r["jid"] == jid]


def test_log_entry_render():
    """Every lifecycle kind's row, ``detail`` text included, is pinned."""
    log = ProvenanceLog()
    log.now = 10.0
    log.emit("submit", jid=7, n_nodes=4, mem_request_mb=8192)
    log.emit("unrunnable", jid=7)
    log.now = 30.0
    log.emit("start", jid=7, nodes=4, local_mb=32768, remote_mb=1024,
             slowdown=1.23456, wait_s=20.0)
    log.now = 330.0
    log.emit("resize", jid=7, freed_mb=512, grown_mb=0)
    log.emit("oom_kill", jid=7, restarts=1)
    log.now = 930.4
    log.emit("timeout", jid=7, limit_s=900.4)
    log.emit("finish", jid=7, response_s=920.4, runtime_s=600.6)
    assert lifecycle_rows(log) == [
        {"t": 10.0, "event": "submit", "jid": 7, "detail": "n=4 req=8192MB"},
        {"t": 10.0, "event": "unrunnable", "jid": 7},
        {"t": 30.0, "event": "start", "jid": 7,
         "detail": "nodes=4 local=32768MB remote=1024MB slowdown=1.235"},
        {"t": 330.0, "event": "resize", "jid": 7,
         "detail": "freed=512MB grown=0MB"},
        {"t": 330.0, "event": "oom-kill", "jid": 7, "detail": "restarts=1"},
        {"t": 930.4, "event": "timeout", "jid": 7, "detail": "limit=900s"},
        {"t": 930.4, "event": "finish", "jid": 7, "detail": "runtime=601s"},
    ]


def test_event_log_filters():
    """Only the seven lifecycle kinds reach the view, in emission order."""
    log = ProvenanceLog()
    scope = log.emit("sched_pass", parents=(), queue_depth=2)
    log.emit("submit", jid=1, n_nodes=1, mem_request_mb=1)
    log.emit("borrow_plan", jid=1, lenders=[3])
    log.emit("cluster.apply", jid=1, nodes=1, local_mb=1, remote_mb=0)
    log.emit("start", jid=1, nodes=1, local_mb=1, remote_mb=0,
             slowdown=1.0, wait_s=0.0)
    log.emit("submit", jid=2, n_nodes=1, mem_request_mb=1)
    log.emit("slowdown", jid=1, parents=(scope,), old=1.0, new=1.1)
    log.emit("finish", jid=1, response_s=5.0, runtime_s=5.0)
    rows = lifecycle_rows(log)
    assert [(r["event"], r["jid"]) for r in rows] == [
        ("submit", 1), ("start", 1), ("submit", 2), ("finish", 1),
    ]
    assert [r["event"] for r in _for_job(rows, 1)] == ["submit", "start", "finish"]
    assert len(_of_kind(rows, "submit")) == 2


def test_null_log_records_nothing(tiny_config, tmp_path):
    """Telemetry without provenance has no event record to export."""
    assert lifecycle_rows(NULL_PROVENANCE) == []
    tel = Telemetry(provenance=False)
    simulate([make_job()], tiny_config, policy="static",
             model=NullContentionModel(), telemetry=tel)
    tel.export(tmp_path)
    assert not (tmp_path / "events.jsonl").exists()
    assert (tmp_path / "metrics.jsonl").exists()


def test_ring_buffer_keeps_newest_and_counts_dropped(tiny_config, tmp_path):
    """A bounded provenance ring bounds the view; trace flags the loss."""
    log = ProvenanceLog(max_entries=3)
    for i in range(10):
        log.emit("submit", jid=i, n_nodes=1, mem_request_mb=1)
    assert [r["jid"] for r in lifecycle_rows(log)] == [7, 8, 9]
    assert log.dropped == 7

    jobs = [make_job(jid=i, submit=float(i * 10), runtime=300.0)
            for i in range(3)]
    tel = Telemetry(max_prov_entries=5)
    simulate(jobs, tiny_config, policy="static",
             model=NullContentionModel(), telemetry=tel)
    out = tel.export(tmp_path)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["provenance_dropped"] == tel.provenance.dropped > 0
    # An early job's history is gone — partial views are documented.
    assert "[truncated: " in render_job_trace(out, 0)


def test_ring_buffer_below_capacity_drops_nothing(tiny_config, tmp_path):
    jobs = [make_job(jid=i, submit=float(i * 10), runtime=300.0)
            for i in range(3)]
    tel = Telemetry()
    simulate(jobs, tiny_config, policy="static",
             model=NullContentionModel(), telemetry=tel)
    out = tel.export(tmp_path)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["provenance_dropped"] == 0
    text = render_job_trace(out, 0)
    assert "truncated" not in text and "finish" in text


def test_ring_buffer_validates_bound():
    with pytest.raises(ValueError):
        Telemetry(max_prov_entries=0)
    with pytest.raises(ValueError):
        Telemetry(max_prov_entries=-5)


def test_simulation_with_logging(tiny_config, tmp_path):
    jobs = [make_job(jid=i, submit=float(i * 10), runtime=300.0)
            for i in range(3)]
    tel = Telemetry()
    res = simulate(jobs, tiny_config, policy="static",
                   model=NullContentionModel(), telemetry=tel)
    rows = _lifecycle(tel)
    assert len(_of_kind(rows, "submit")) == 3
    assert len(_of_kind(rows, "start")) == len(res.records) == 3
    assert len(_of_kind(rows, "finish")) == len(res.records)
    # Per-job events are causally ordered.
    for jid in range(3):
        times = [r["t"] for r in _for_job(rows, jid)]
        assert times == sorted(times)
    # The export writes exactly the view.
    out = tel.export(tmp_path)
    exported = [json.loads(line)
                for line in (out / "events.jsonl").read_text().splitlines()]
    assert exported == rows


def test_logging_off_by_default(tiny_config):
    """An unobserved run records into the disabled null log: nothing."""
    handle = build_simulation([make_job()], tiny_config, policy="static",
                              model=NullContentionModel())
    assert handle.controller.prov is NULL_PROVENANCE
    handle.finish()
    assert len(NULL_PROVENANCE) == 0


def test_dynamic_resize_and_oom_logged(tiny_config):
    total = tiny_config.total_memory_mb()
    hog = make_job(jid=0, submit=0.0, n_nodes=1, runtime=4000.0,
                   request_mb=total - 70_000)
    grower = make_job(jid=1, submit=0.0, n_nodes=1, runtime=1000.0,
                      request_mb=5_000, peak_mb=5_000)
    grower.usage = UsageTrace([0.0, 500.0], [1_000, 100_000])
    tel = Telemetry()
    res = simulate([hog, grower], tiny_config, policy="dynamic",
                   model=NullContentionModel(), telemetry=tel)
    rows = _lifecycle(tel)
    kills = _of_kind(rows, "oom-kill")
    assert len(kills) == res.oom_kills >= 1
    assert all(r["jid"] == 1 for r in kills)
    assert [r["detail"] for r in kills] == [
        f"restarts={n}" for n in range(1, len(kills) + 1)
    ]
    # Every restart starts the job again.
    assert len(_of_kind(rows, "start")) == len(res.records) + res.oom_kills
    for jid in (0, 1):
        times = [r["t"] for r in _for_job(rows, jid)]
        assert times == sorted(times)

    wl = synthetic_workload(n_jobs=20, n_system_nodes=48, seed=0)
    tel = Telemetry()
    simulate(wl.fresh_jobs(), SystemConfig.from_memory_level(100, n_nodes=48),
             policy="dynamic", profiles=wl.profiles, telemetry=tel)
    resizes = _of_kind(_lifecycle(tel), "resize")
    assert len(resizes) == tel.registry.counters["resizes"].value > 0


def test_timeout_logged(tiny_config):
    config = tiny_config.with_(enforce_walltime=True)
    overrunner = make_job(jid=0, submit=0.0, n_nodes=4, runtime=5000.0)
    overrunner.walltime_limit = 300.0
    follower = make_job(jid=1, submit=10.0, n_nodes=4, runtime=100.0,
                        walltime=100.0)
    tel = Telemetry()
    res = simulate([overrunner, follower], config, policy="static",
                   model=NullContentionModel(), telemetry=tel)
    rows = _lifecycle(tel)
    timeouts = _of_kind(rows, "timeout")
    assert len(timeouts) == res.timeouts == 1
    assert timeouts[0]["jid"] == 0 and timeouts[0]["detail"] == "limit=300s"
    assert len(_of_kind(rows, "finish")) + len(timeouts) == len(res.records)
    assert [r["event"] for r in _for_job(rows, 0)] == [
        "submit", "start", "timeout",
    ]


def test_unrunnable_logged(tiny_config):
    giant = make_job(jid=0, request_mb=10**9)
    tel = Telemetry()
    res = simulate([giant], tiny_config, policy="static",
                   model=NullContentionModel(), telemetry=tel)
    rows = _lifecycle(tel)
    assert len(_of_kind(rows, "unrunnable")) == len(res.unrunnable) == 1
    assert rows == [
        {"t": 0.0, "event": "submit", "jid": 0, "detail": "n=1 req=1000000000MB"},
        {"t": 0.0, "event": "unrunnable", "jid": 0},
    ]
