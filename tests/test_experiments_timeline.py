"""ASCII schedule timelines."""

import pytest

from repro.core.config import SystemConfig
from repro.experiments.timeline import (
    gantt,
    occupancy_strip,
    render_run,
    series_strips,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import simulate
from repro.slowdown.model import NullContentionModel

from conftest import make_job


@pytest.fixture
def telemetry():
    return Telemetry(sample_interval=60.0, trace_spans=False,
                     provenance=False)


@pytest.fixture
def result(tiny_config, telemetry):
    jobs = [make_job(jid=i, submit=float(i * 50), n_nodes=2, runtime=400.0)
            for i in range(6)]
    return simulate(jobs, tiny_config, policy="static",
                    model=NullContentionModel(), telemetry=telemetry)


def test_occupancy_strip_renders(result, telemetry):
    out = occupancy_strip(telemetry.registry, result.total_nodes, width=40,
                          title="occ")
    lines = out.splitlines()
    assert lines[0] == "occ"
    assert lines[1].startswith("cpu |") and lines[1].endswith("|")
    assert lines[2].startswith("mem |")
    # Two jobs of four nodes busy -> mid-range glyphs appear.
    assert any(ch not in " |" for ch in lines[1])


def test_occupancy_strip_empty_rejected():
    with pytest.raises(ValueError):
        occupancy_strip(MetricsRegistry(), n_nodes=4)


def test_occupancy_strip_reads_gauges():
    """cpu is busy/n_nodes; mem is (used + lent) over the pool, whose
    capacity is the gauges' sum (so it follows capacity expansion)."""
    reg = MetricsRegistry()
    for t, busy, used, lent, free in ((0.0, 2, 30, 10, 60),
                                      (100.0, 4, 150, 50, 0)):
        reg.set_gauge("busy_nodes", busy, t)
        reg.set_gauge("pool_local_used_mb", used, t)
        reg.set_gauge("pool_lent_mb", lent, t)
        reg.set_gauge("pool_free_local_mb", free, t)
        reg.sample(t)
    lines = occupancy_strip(reg, n_nodes=4, width=2).splitlines()
    assert lines[0] == "cpu |=@|"  # 50%, then 100% busy
    assert lines[1] == "mem |-@|"  # 40%, then 100% allocated


def test_gantt_shows_running_and_queued(result):
    out = gantt(result.records, width=50)
    assert "#" in out
    assert ". queued" in out
    # Six job rows plus axis/legend.
    rows = [l for l in out.splitlines() if l.endswith("|")]
    assert len(rows) == 6


def test_gantt_queued_before_running(tiny_config):
    # Force queueing: all jobs need the whole machine.
    jobs = [make_job(jid=i, submit=0.0, n_nodes=4, runtime=300.0)
            for i in range(3)]
    res = simulate(jobs, tiny_config, policy="static",
                   model=NullContentionModel())
    out = gantt(res.records, width=60)
    rows = [l for l in out.splitlines() if l.endswith("|")]
    assert any("." in r for r in rows[1:])  # later jobs waited


def test_gantt_marks_restarts(result):
    rec = result.records[0]
    object.__setattr__(rec, "restarts", 2)
    out = gantt(result.records)
    assert "x2" in out


def test_gantt_empty_rejected():
    with pytest.raises(ValueError):
        gantt([])


def test_gantt_caps_rows(result):
    out = gantt(result.records, max_jobs=2)
    rows = [l for l in out.splitlines() if l.endswith("|")]
    assert len(rows) == 2


def test_render_run_combined(result, telemetry):
    out = render_run(result, telemetry.registry, width=40)
    assert "cluster occupancy" in out
    assert "first 25 jobs" in out


def test_render_run_without_timeline(tiny_config):
    res = simulate([make_job()], tiny_config, policy="static",
                   model=NullContentionModel())
    out = render_run(res)
    assert "cluster occupancy" not in out
    assert "#" in out


def test_series_strips_renders_telemetry_samples():
    series = {
        "queue_depth": ([0.0, 100.0, 200.0], [0.0, 4.0, 2.0]),
        "running_jobs": ([0.0, 100.0, 200.0], [1.0, 1.0, 3.0]),
    }
    out = series_strips(series, width=30, title="sampled")
    lines = out.splitlines()
    assert lines[0] == "sampled"
    assert lines[1].startswith(" queue_depth |")
    assert "max=4" in lines[1]
    assert lines[2].startswith("running_jobs |")
    assert "max=3" in lines[2]
    # The peak column renders the top-of-ramp glyph.
    assert "@" in lines[1]


def test_series_strips_all_zero_series():
    out = series_strips({"idle": ([0.0, 10.0], [0.0, 0.0])}, width=20)
    row = out.splitlines()[0]
    assert row.startswith("idle |")
    assert "max=0" in row


def test_series_strips_empty_rejected():
    with pytest.raises(ValueError):
        series_strips({})
    with pytest.raises(ValueError):
        series_strips({"x": ([], [])})
