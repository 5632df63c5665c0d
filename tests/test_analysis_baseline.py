"""SARIF output and CLI exit-code tests."""

import json
from pathlib import Path

import pytest

from repro.analysis import Finding, render_sarif, rule_ids, sarif_report
from repro.analysis.cli import main as lint_main


def make_finding(rule="DET101", path="src/repro/x.py", line=3, message="boom"):
    return Finding(rule=rule, path=path, line=line, col=1, message=message)


# ----------------------------------------------------------------------
# SARIF
# ----------------------------------------------------------------------

def test_sarif_shape_and_rule_metadata():
    report = sarif_report([make_finding()])
    assert report["version"] == "2.1.0"
    assert "sarif" in report["$schema"]
    run = report["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    ids = {r["id"] for r in driver["rules"]}
    assert ids == set(rule_ids(deep=True))
    result = run["results"][0]
    assert result["ruleId"] == "DET101"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["region"]["startLine"] == 3
    assert loc["artifactLocation"]["uri"].endswith("repro/x.py")


def test_render_sarif_is_valid_json():
    parsed = json.loads(render_sarif([]))
    assert parsed["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# CLI exit codes and formats
# ----------------------------------------------------------------------

CLEAN = "def f():\n    return 1\n"
DIRTY = "def f(total, n):\n    share_mb = total / n\n    return share_mb\n"


@pytest.fixture()
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    return tmp_path, pkg


def test_cli_exit_zero_on_clean(tree, capsys):
    root, pkg = tree
    (pkg / "m.py").write_text(CLEAN)
    assert lint_main([str(pkg)]) == 0
    assert lint_main(["--deep", str(pkg)]) == 0


def test_cli_exit_one_on_findings(tree):
    root, pkg = tree
    (pkg / "m.py").write_text(DIRTY)
    assert lint_main([str(pkg)]) == 1
    assert lint_main(["--deep", str(pkg)]) == 1


def test_cli_exit_two_on_usage_error(tmp_path):
    assert lint_main([str(tmp_path / "missing.py")]) == 2
    assert lint_main(["--rule", "NOPE999", str(tmp_path)]) == 2


def test_cli_json_mode_field(tree, capsys):
    root, pkg = tree
    (pkg / "m.py").write_text(CLEAN)
    lint_main(["--format", "json", str(pkg)])
    shallow = json.loads(capsys.readouterr().out)
    assert shallow["version"] == 2
    assert shallow["mode"] == "shallow"
    assert "baseline" not in shallow
    lint_main(["--format", "json", "--deep", str(pkg)])
    deep = json.loads(capsys.readouterr().out)
    assert deep["mode"] == "deep"


def test_cli_sarif_output_file(tree, tmp_path):
    root, pkg = tree
    (pkg / "m.py").write_text(DIRTY)
    out = tmp_path / "lint.sarif"
    code = lint_main(
        ["--deep", "--format", "sarif", "--output", str(out), str(pkg)]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["runs"][0]["results"][0]["ruleId"] == "UNIT001"


def test_cli_explicit_deep_rule_without_deep_flag(tree):
    root, pkg = tree
    (pkg / "m.py").write_text(
        "def total(items):\n"
        "    acc = 0.0\n"
        "    for it in set(items):\n"
        "        acc += it * 0.5\n"
        "    return acc\n"
    )
    assert lint_main(["--rule", "DET101", str(pkg)]) == 1
    assert lint_main(["--rule", "UNIT002", str(pkg)]) == 0
