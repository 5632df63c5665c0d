"""Command-line interface."""

import json
from pathlib import Path

import pytest

from repro.analysis import rule_ids
from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_and_inspect(tmp_path, capsys):
    out = tmp_path / "wl.json.gz"
    rc = main(["generate", "--jobs", "50", "--nodes", "64",
               "--frac-large", "0.5", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert "wrote 50 jobs" in capsys.readouterr().out

    rc = main(["inspect", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "50 jobs" in captured
    assert "Table 3" in captured


def test_generate_with_swf(tmp_path, capsys):
    out = tmp_path / "wl.json"
    swf = tmp_path / "trace.swf"
    main(["generate", "--jobs", "20", "--nodes", "32",
          "--out", str(out), "--swf", str(swf)])
    assert swf.exists()
    assert len(swf.read_text().strip().splitlines()) >= 20


def test_generate_grizzly(tmp_path, capsys):
    out = tmp_path / "g.json.gz"
    rc = main(["generate", "--kind", "grizzly", "--jobs", "40",
               "--nodes", "64", "--out", str(out)])
    assert rc == 0
    assert "wrote 40 jobs" in capsys.readouterr().out


def test_simulate_from_file(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    main(["generate", "--jobs", "40", "--nodes", "64", "--out", str(wl)])
    capsys.readouterr()
    res = tmp_path / "res.json"
    csv = tmp_path / "res.csv"
    rc = main(["simulate", "--workload", str(wl), "--nodes", "64",
               "--memory-level", "75", "--policy", "dynamic",
               "--out", str(res), "--csv", str(csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dynamic on 75% memory" in out
    data = json.loads(res.read_text())
    assert data["policy"] == "dynamic"
    assert csv.read_text().startswith("jid,")


def test_simulate_inline_workload(capsys):
    rc = main(["simulate", "--jobs", "30", "--nodes", "48",
               "--memory-level", "100", "--policy", "baseline"])
    assert rc == 0
    assert "baseline on 100% memory" in capsys.readouterr().out


def test_simulate_timeline_flag(capsys):
    rc = main(["simulate", "--jobs", "25", "--nodes", "32",
               "--memory-level", "100", "--policy", "static",
               "--timeline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cluster occupancy" in out
    assert "# running" in out


def test_simulate_timeline_stdout_is_pinned(capsys):
    """The whole stdout of a borrowing dynamic run with ``--timeline``:
    summary table, occupancy strip (drawn from the telemetry gauges)
    and Gantt chart, byte for byte."""
    golden = Path(__file__).parent / "data" / "simulate_timeline_dynamic.txt"
    rc = main(["simulate", "--jobs", "60", "--nodes", "64",
               "--frac-large", "0.25", "--memory-level", "50",
               "--policy", "dynamic", "--timeline"])
    assert rc == 0
    assert capsys.readouterr().out == golden.read_text()


@pytest.mark.parametrize("number,needle", [
    (1, "Table 1"),
    (2, "Table 2"),
    (3, "Table 3"),
])
def test_table_commands(capsys, number, needle):
    rc = main(["table", str(number)])
    assert rc == 0
    assert needle in capsys.readouterr().out


def test_figure4_command(capsys):
    rc = main(["figure", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fig. 4a" in out and "Fig. 4b" in out


@pytest.mark.slow
def test_figure9_command(capsys):
    rc = main(["figure", "9", "--scale", "small"])
    assert rc == 0
    assert "Fig. 9" in capsys.readouterr().out


def test_invalid_memory_level_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "--memory-level", "42"])


def test_validate_command(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    main(["generate", "--jobs", "120", "--nodes", "64", "--frac-large",
          "0.5", "--out", str(wl)])
    capsys.readouterr()
    rc = main(["validate", str(wl)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "all checks passed" in out


def test_validate_strict_tolerance_fails(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    main(["generate", "--jobs", "120", "--nodes", "64", "--frac-large",
          "0.5", "--out", str(wl)])
    capsys.readouterr()
    rc = main(["validate", str(wl), "--tolerance", "0.0001"])
    assert rc == 1
    assert "FAILED" in capsys.readouterr().out


def test_figure5_plot_flag(capsys):
    # Tiny inline check that --plot renders bars without crashing; use
    # figure 9 at small scale for speed is still heavy, so parse only.
    parser = build_parser()
    args = parser.parse_args(["figure", "5", "--plot"])
    assert args.plot is True


def test_workers_flags_parse():
    parser = build_parser()
    args = parser.parse_args(["campaign", "fig5", "--out", "x.jsonl",
                              "--workers", "4", "--mixes", "0.5",
                              "--memory-levels", "50", "100",
                              "--overestimations", "0.0"])
    assert args.workers == 4
    assert args.mixes == [0.5]
    assert args.memory_levels == [50, 100]
    assert parser.parse_args(["sweep", "--workers", "2"]).workers == 2
    assert parser.parse_args(["figure", "5", "--workers", "3"]).workers == 3


def test_campaign_cli_subset_grid_parallel(tmp_path, capsys):
    out = tmp_path / "camp.jsonl"
    rc = main(["campaign", "fig5", "--scale", "small", "--out", str(out),
               "--mixes", "0.0", "--memory-levels", "100",
               "--overestimations", "0.0", "--workers", "2"])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # one record per policy
    for line in lines:
        rec = json.loads(line)
        assert rec["scenario"]["memory_level"] == 100
        assert rec["scenario"]["frac_large"] == 0.0
    out_text = capsys.readouterr().out
    assert "3 scenarios" in out_text
    assert "campaign complete" in out_text


def test_lint_command_clean_tree(capsys):
    # Default paths = the installed repro package, which ships lint-clean.
    rc = main(["lint"])
    assert rc == 0
    assert "all clean" in capsys.readouterr().out


def test_lint_command_json_on_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("peak_mb = 1.5\nfree_mb = 3 / 2\n")
    rc = main(["lint", "--format", "json", str(bad)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2
    assert payload["summary"]["by_rule"] == {"UNIT001": 2}


def test_lint_command_rule_selection(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def f(acc=[]):\n    peak_mb = 1.5\n")
    rc = main(["lint", "--rule", "UNIT001", "--format", "json", str(bad)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["summary"]["by_rule"]) == ["UNIT001"]


def test_lint_command_list_rules(capsys):
    rc = main(["lint", "--list-rules"])
    assert rc == 0
    out = capsys.readouterr().out
    for rule_id in rule_ids():
        assert rule_id in out


# ----------------------------------------------------------------------
# Observability: --telemetry, trace, -v/-q
# ----------------------------------------------------------------------
def test_simulate_telemetry_and_trace(tmp_path, capsys):
    tel_dir = tmp_path / "tel"
    rc = main(["simulate", "--jobs", "20", "--nodes", "48",
               "--telemetry", str(tel_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote telemetry to" in out
    for name in ("metrics.jsonl", "metrics.csv", "metrics.prom",
                 "spans.jsonl", "events.jsonl", "meta.json"):
        assert (tel_dir / name).exists()

    rc = main(["trace", str(tel_dir), "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "counters" in out
    assert "jobs_finished" in out
    assert "slowest layers" in out

    rc = main(["trace", str(tel_dir), "--job", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "job 0 lifecycle" in out
    assert "submit" in out

    rc = main(["trace", str(tel_dir), "--series"])
    assert rc == 0
    assert "sampled series" in capsys.readouterr().out


def test_trace_strict_and_perfetto(tmp_path, capsys):
    tel_dir = tmp_path / "tel"
    assert main(["simulate", "--jobs", "15", "--nodes", "48",
                 "--telemetry", str(tel_dir)]) == 0
    capsys.readouterr()
    # No truncation happened: --strict passes.
    rc = main(["trace", str(tel_dir), "--job", "0", "--strict"])
    assert rc == 0
    capsys.readouterr()
    trace_out = tmp_path / "t.json"
    rc = main(["trace", str(tel_dir), "--perfetto", str(trace_out)])
    assert rc == 0
    assert "wrote Perfetto trace" in capsys.readouterr().out
    doc = json.loads(trace_out.read_text())
    assert doc["traceEvents"]


def test_trace_strict_fails_on_truncated_log(tmp_path, capsys):
    tel_dir = tmp_path / "tel"
    assert main(["simulate", "--jobs", "15", "--nodes", "48",
                 "--telemetry", str(tel_dir)]) == 0
    capsys.readouterr()
    # Simulate a ring-buffered export: stamp drops into the metadata.
    meta_path = tel_dir / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["provenance_dropped"] = 7
    meta_path.write_text(json.dumps(meta))
    rc = main(["trace", str(tel_dir), "--job", "0"])
    assert rc == 0  # marker only, non-strict stays green
    assert "[truncated: 7 events evicted]" in capsys.readouterr().out
    rc = main(["trace", str(tel_dir), "--job", "0", "--strict"])
    assert rc == 1
    assert "truncat" in capsys.readouterr().out


def test_explain_command(tmp_path, capsys):
    tel_dir = tmp_path / "tel"
    assert main(["simulate", "--jobs", "20", "--nodes", "48",
                 "--memory-level", "50", "--telemetry", str(tel_dir)]) == 0
    capsys.readouterr()
    rc = main(["explain", str(tel_dir), "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "job 0 lifecycle" in out
    assert "wait-time blame" in out
    assert "recorded wait" in out
    assert "causal why-chain" in out


def test_diff_command_identical_and_divergent(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    for tel_dir, seed in ((a, "1"), (b, "1"), (c, "5")):
        assert main(["simulate", "--jobs", "15", "--nodes", "48",
                     "--seed", seed, "--telemetry", str(tel_dir)]) == 0
    capsys.readouterr()
    rc = main(["diff", str(a), str(b)])
    assert rc == 0
    assert "identical" in capsys.readouterr().out
    rc = main(["diff", str(a), str(c)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "first divergence" in out or "diverge" in out


def test_quiet_silences_status_lines(tmp_path, capsys):
    out_file = tmp_path / "wl.json"
    rc = main(["generate", "--jobs", "10", "--nodes", "32", "-q",
               "--out", str(out_file)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    # The flag also works before the subcommand.
    rc = main(["-q", "generate", "--jobs", "10", "--nodes", "32",
               "--out", str(out_file)])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_quiet_keeps_result_output(capsys):
    rc = main(["-q", "simulate", "--jobs", "10", "--nodes", "48",
               "--policy", "baseline"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline on 100% memory" in out  # results always print


def test_verbose_adds_detail(tmp_path, capsys):
    out_file = tmp_path / "wl.json"
    rc = main(["generate", "--jobs", "10", "--nodes", "32", "-v",
               "--out", str(out_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 10 jobs" in out
    assert "n_jobs: 10" in out  # workload meta only shown with -v


def test_campaign_telemetry_flag_and_eta(tmp_path, capsys):
    out = tmp_path / "camp.jsonl"
    tel_dir = tmp_path / "tel"
    rc = main(["campaign", "fig5", "--scale", "small", "--out", str(out),
               "--mixes", "0.0", "--memory-levels", "100",
               "--overestimations", "0.0", "--telemetry", str(tel_dir)])
    assert rc == 0
    out_text = capsys.readouterr().out
    assert "ETA" in out_text
    assert "merged campaign metrics" in out_text
    assert (tel_dir / "metrics.jsonl").exists()
    assert (tel_dir / "metrics.prom").exists()
    dumps = list((tel_dir / "scenarios").glob("*.json"))
    assert len(dumps) == 3  # one per policy


def test_whatif_late_fork_prints_the_suffix_event_count(capsys):
    """At 0.9 x makespan the suffix replays a few dozen of the run's
    events; the CLI prints that count out of the whole run's, and the
    pages the query's rollback restored."""
    rc = main(["whatif", "--jobs", "120", "--nodes", "96", "--at", "158000",
               "--submit", "8:3600:65536", "-v"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replayed 68 of the run's 1050 events;" in out
    assert "restored 1 COW pages" in out
