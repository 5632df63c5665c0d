"""Run-divergence bisection (repro.obs.diff)."""

import json

import pytest

from repro.core.config import SystemConfig
from repro.obs.diff import DIFF_FILES, diff_runs, render_diff
from repro.obs.telemetry import Telemetry
from repro.scheduler.simulator import simulate
from repro.traces.pipeline import synthetic_workload


def _export_run(directory, seed=0, n_jobs=15, n_nodes=48):
    wl = synthetic_workload(n_jobs=n_jobs, n_system_nodes=n_nodes, seed=seed)
    cfg = SystemConfig.from_memory_level(75, n_nodes=n_nodes)
    tel = Telemetry()
    simulate(wl.fresh_jobs(), cfg, policy="dynamic",
             profiles=wl.profiles, telemetry=tel)
    tel.export(directory)
    return directory


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("diff")
    a = _export_run(base / "a", seed=0)
    b = _export_run(base / "b", seed=0)
    return a, b


def test_identical_seed_runs_diff_clean(twin_runs):
    a, b = twin_runs
    assert diff_runs(a, b) is None
    text = render_diff(a, b, None)
    assert "identical" in text
    for name in DIFF_FILES:
        assert name in text


def test_wall_clock_streams_are_excluded(twin_runs):
    # spans.jsonl (the wall-clock layer table) and meta.json legitimately
    # differ between runs; the bisection must never look at them.
    assert "spans.jsonl" not in DIFF_FILES
    assert "meta.json" not in DIFF_FILES


def test_divergent_seed_localises_first_event(tmp_path):
    a = _export_run(tmp_path / "a", seed=0)
    b = _export_run(tmp_path / "b", seed=7)
    div = diff_runs(a, b)
    assert div is not None
    assert div["file"] == DIFF_FILES[0] == "provenance.jsonl"
    assert div["line"] >= 1
    assert div["a"] != div["b"]
    # The reported line really is the first differing one.
    lines_a = (a / div["file"]).read_text().splitlines()
    lines_b = (b / div["file"]).read_text().splitlines()
    assert lines_a[: div["line"] - 1] == lines_b[: div["line"] - 1]
    assert lines_a[div["line"] - 1] != lines_b[div["line"] - 1]


def test_injected_divergence_mid_stream(twin_runs, tmp_path):
    a, _ = twin_runs
    b = tmp_path / "b"
    b.mkdir()
    for name in DIFF_FILES:
        (b / name).write_text((a / name).read_text())
    lines = (b / "provenance.jsonl").read_text().splitlines()
    target = len(lines) // 2
    row = json.loads(lines[target])
    row["kind"] = "tampered"
    lines[target] = json.dumps(row, sort_keys=True)
    (b / "provenance.jsonl").write_text("\n".join(lines) + "\n")

    div = diff_runs(a, b)
    assert div == {
        "file": "provenance.jsonl",
        "line": target + 1,
        "a": (a / "provenance.jsonl").read_text().splitlines()[target],
        "b": lines[target],
    }
    text = render_diff(a, b, div)
    assert "provenance.jsonl" in text and f"line {target + 1}" in text
    assert "tampered" in text
    # Both sides get their causal context rendered.
    assert "causal" in text
    assert "A:" in text and "B:" in text


def test_file_on_one_side_only(twin_runs, tmp_path):
    a, _ = twin_runs
    b = tmp_path / "partial"
    b.mkdir()
    for name in DIFF_FILES[1:]:
        (b / name).write_text((a / name).read_text())
    div = diff_runs(a, b)
    assert div["file"] == "provenance.jsonl"
    assert div["line"] == 0
    assert "only" in render_diff(a, b, div)


def test_truncated_stream_diverges_at_the_missing_line(twin_runs, tmp_path):
    a, _ = twin_runs
    b = tmp_path / "short"
    b.mkdir()
    for name in DIFF_FILES:
        (b / name).write_text((a / name).read_text())
    lines = (a / "events.jsonl").read_text().splitlines()
    (b / "events.jsonl").write_text("\n".join(lines[:-1]) + "\n")
    div = diff_runs(a, b)
    assert div["file"] == "events.jsonl"
    assert div["line"] == len(lines)
    assert div["b"] is None
