"""Telemetry facade and its simulate() integration (repro.obs)."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.obs.export import metrics_jsonl, parse_prometheus_text
from repro.obs.provenance import lifecycle_rows
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.scheduler.simulator import simulate
from repro.traces.pipeline import synthetic_workload

N_NODES = 48


@pytest.fixture(scope="module")
def workload():
    return synthetic_workload(n_jobs=20, n_system_nodes=N_NODES, seed=0)


def _config():
    return SystemConfig.from_memory_level(100, n_nodes=N_NODES)


def _run(workload, telemetry=None, policy="dynamic"):
    return simulate(workload.fresh_jobs(), _config(), policy=policy,
                    profiles=workload.profiles, telemetry=telemetry)


def test_observed_run_has_identical_outcome(workload):
    plain = _run(workload)
    tel = Telemetry()
    observed = _run(workload, telemetry=tel)
    assert observed.summary() == plain.summary()
    assert [(r.jid, r.start_time, r.finish_time) for r in observed.records] \
        == [(r.jid, r.start_time, r.finish_time) for r in plain.records]


def test_metrics_dump_byte_identical_across_runs(workload):
    dumps = []
    for _ in range(2):
        tel = Telemetry()
        _run(workload, telemetry=tel)
        dumps.append(metrics_jsonl(tel.registry))
    assert dumps[0] == dumps[1]


def test_disabled_telemetry_adds_zero_records(workload):
    plain = _run(workload)
    null_run = _run(workload, telemetry=NULL_TELEMETRY)
    # The null telemetry schedules no TELEMETRY events and attaches
    # nothing to the result.
    assert null_run.events_processed == plain.events_processed
    assert "telemetry_dump" not in null_run.meta
    assert len(NULL_TELEMETRY.registry) == 0
    assert len(NULL_TELEMETRY.provenance) == 0
    # An observed run *does* process extra (TELEMETRY) engine events.
    tel = Telemetry()
    observed = _run(workload, telemetry=tel)
    assert observed.events_processed > plain.events_processed


def test_expected_metrics_recorded(workload):
    tel = Telemetry()
    res = _run(workload, telemetry=tel)
    reg = tel.registry
    n = len(workload)
    assert reg.counters["jobs_submitted"].value == n
    assert reg.counters["jobs_started"].value == n
    assert reg.counters["jobs_finished"].value == n
    assert reg.counters["sched_passes"].value > 0
    assert reg.histograms["job_wait_s"].count == n
    assert reg.histograms["job_response_s"].count == n
    assert len(reg.series) > 0
    assert tel.meta["summary"] == res.summary()
    assert len(lifecycle_rows(tel.provenance)) > 0


def test_export_directory_layout(workload, tmp_path):
    tel = Telemetry()
    _run(workload, telemetry=tel)
    out = tel.export(tmp_path / "tel")
    names = sorted(p.name for p in out.iterdir())
    assert names == ["blame.json", "events.jsonl", "meta.json",
                     "metrics.csv", "metrics.jsonl", "metrics.prom",
                     "provenance.jsonl", "spans.jsonl"]
    samples = parse_prometheus_text((out / "metrics.prom").read_text())
    assert samples["repro_jobs_finished_total"] == len(workload)
    events = [json.loads(line)
              for line in (out / "events.jsonl").read_text().splitlines()]
    assert events == lifecycle_rows(tel.provenance)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["policy"] == "dynamic"


def test_event_log_ring_buffer_bound(workload):
    # The event log is a view over the provenance ring, so that ring's
    # bound bounds it too.
    tel = Telemetry(max_prov_entries=10)
    _run(workload, telemetry=tel)
    assert len(tel.provenance) == 10
    assert tel.provenance.dropped > 0
    assert len(lifecycle_rows(tel.provenance)) <= 10


def test_spans_can_be_disabled(workload):
    tel = Telemetry(trace_spans=False)
    _run(workload, telemetry=tel)
    assert tel.tracer is None
    # Metrics still collected.
    assert tel.registry.counters["jobs_finished"].value == len(workload)


def test_sample_interval_validated():
    with pytest.raises(ValueError):
        Telemetry(sample_interval=0.0)
    with pytest.raises(ValueError):
        Telemetry(sample_interval=-1.0)

