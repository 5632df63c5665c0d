"""Trace reports over an exported telemetry directory (repro.obs.report)."""

import pytest

from repro.core.config import SystemConfig
from repro.obs.export import metrics_jsonl
from repro.obs.report import (
    load_events,
    load_layers,
    load_metrics_records,
    render_job_trace,
    render_trace_summary,
    samples_by_name,
)
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import simulate
from repro.traces.pipeline import synthetic_workload


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    wl = synthetic_workload(n_jobs=20, n_system_nodes=48, seed=0)
    tel = Telemetry()
    simulate(wl.fresh_jobs(), SystemConfig.from_memory_level(100, n_nodes=48),
             policy="dynamic", profiles=wl.profiles, telemetry=tel)
    return tel.export(tmp_path_factory.mktemp("tel"))


def test_summary_has_all_sections(telemetry_dir):
    text = render_trace_summary(telemetry_dir)
    assert "counters" in text
    assert "jobs_finished" in text
    assert "histograms" in text
    assert "job_wait_s" in text
    assert "event log:" in text
    assert "slowest layers" in text
    assert "policy.monitor" in text
    assert "(policy: dynamic)" in text


def test_summary_top_limits_phase_rows(telemetry_dir):
    text = render_trace_summary(telemetry_dir, top=1)
    assert "top 1 of" in text
    # Exactly one data row under the layer table header.
    tail = text.split("slowest layers")[1].splitlines()
    data_rows = [ln for ln in tail if ln.strip() and "  " in ln][2:]
    assert len(data_rows) == 1


def test_job_trace_reconstructs_lifecycle(telemetry_dir):
    events = load_events(telemetry_dir)
    jid = next(e["jid"] for e in events if e["event"] == "finish")
    text = render_job_trace(telemetry_dir, jid)
    assert f"job {jid} lifecycle" in text
    assert "submit" in text
    assert "start" in text
    assert "finish" in text
    assert "waited" in text and "response time" in text


def test_job_trace_unknown_jid(telemetry_dir):
    text = render_job_trace(telemetry_dir, 99999)
    assert "no events recorded" in text


def test_metrics_only_directory_tolerated(tmp_path):
    # A merged campaign directory has metrics files but no layer table
    # or events.
    tel_dir = tmp_path / "merged"
    tel_dir.mkdir()
    tel = Telemetry()
    tel.inc("jobs_finished", 5)
    (tel_dir / "metrics.jsonl").write_text(metrics_jsonl(tel.registry))
    text = render_trace_summary(tel_dir)
    assert "jobs_finished" in text
    assert "no layer table recorded" in text
    job = render_job_trace(tel_dir, 0)
    assert "no events.jsonl" in job


def test_samples_by_name_groups_series(telemetry_dir):
    samples = samples_by_name(load_metrics_records(telemetry_dir))
    assert "queue_depth" in samples
    times, values = samples["queue_depth"]
    assert len(times) == len(values) > 0
    assert times == sorted(times)


def test_spans_round_trip(telemetry_dir):
    rows = load_layers(telemetry_dir)
    assert rows
    assert all(set(row) == {"name", "calls", "total_s", "self_s", "max_s"}
               for row in rows)
    assert all(0.0 <= row["self_s"] <= row["total_s"] for row in rows)
    assert any(row["name"] == "scheduler.on_mem_update" for row in rows)
