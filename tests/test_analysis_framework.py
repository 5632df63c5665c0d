"""Unit tests for the lint framework itself (registry, noqa, reporters,
runner, CLI plumbing) — rule-specific behaviour lives in
test_analysis_rules.py and the golden files."""

import json

import pytest

from repro.analysis import (
    Finding,
    LintError,
    ParsedModule,
    Rule,
    all_rules,
    get_rule,
    json_report,
    lint_paths,
    lint_source,
    render_json,
    render_rules,
    render_text,
    resolve_rules,
    rule_ids,
)
from repro.analysis.core import _REGISTRY, iter_python_files, register


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_rule_ids_sorted_and_unique():
    ids = rule_ids()
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


def test_get_rule_is_case_insensitive():
    assert get_rule("det001").id == "DET001"


def test_get_rule_unknown_raises():
    with pytest.raises(LintError, match="unknown rule"):
        get_rule("NOPE999")


def test_resolve_rules_default_is_all():
    assert [r.id for r in resolve_rules(None)] == rule_ids()
    assert [r.id for r in resolve_rules(["UNIT001"])] == ["UNIT001"]


def test_register_rejects_duplicate_id():
    class Dup(Rule):
        id = "DET001"
        title = "duplicate"

        def check(self, module):
            return iter(())

    with pytest.raises(LintError, match="duplicate"):
        register(Dup)


def test_register_rejects_malformed_id_and_severity():
    class BadId(Rule):
        id = "not-an-id"
        title = "bad"

        def check(self, module):
            return iter(())

    with pytest.raises(LintError, match="shape"):
        register(BadId)

    class BadSeverity(Rule):
        id = "ZZZ999"
        title = "bad severity"
        severity = "fatal"

        def check(self, module):
            return iter(())

    with pytest.raises(LintError, match="severity"):
        register(BadSeverity)
    assert "ZZZ999" not in _REGISTRY


# ----------------------------------------------------------------------
# noqa suppression
# ----------------------------------------------------------------------
def test_bare_noqa_suppresses_every_rule():
    src = "x_mb = 1.5  # repro: noqa\n"
    assert lint_source(src, relpath="repro/traces/x.py") == []


def test_noqa_with_other_rule_does_not_suppress():
    src = "x_mb = 1.5  # repro: noqa[DET001]\n"
    findings = lint_source(src, relpath="repro/traces/x.py")
    assert [f.rule for f in findings] == ["UNIT001"]


def test_noqa_accepts_comma_list_and_any_case():
    src = "x_mb = 1.5  # repro: NOQA[det001, unit001]\n"
    assert lint_source(src, relpath="repro/traces/x.py") == []


def test_noqa_only_affects_its_own_line():
    src = (
        "x_mb = 1.5  # repro: noqa[UNIT001]\n"
        "x_mb = 1.5\n"
    )
    findings = lint_source(src, relpath="repro/traces/x.py")
    assert [f.line for f in findings] == [2]


def test_parsed_module_relativizes_paths():
    m = ParsedModule("x = 1\n", path="/somewhere/src/repro/cluster/a.py")
    assert m.relpath == "repro/cluster/a.py"
    m2 = ParsedModule("x = 1\n", path="scripts/tool.py")
    assert m2.relpath == "scripts/tool.py"


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def _sample_findings():
    return [
        Finding("DET001", "a.py", 3, 0, "wall clock"),
        Finding("UNIT001", "a.py", 9, 4, "float mb", severity="error"),
        Finding("DET001", "b.py", 1, 0, "wall clock"),
    ]


def test_json_report_schema():
    report = json_report(_sample_findings())
    assert report["version"] == 2
    assert set(report) == {"version", "mode", "count", "findings", "summary"}
    assert report["count"] == 3
    assert {"rule", "path", "line", "col", "message", "severity"} == set(
        report["findings"][0]
    )
    assert report["summary"]["by_rule"] == {"DET001": 2, "UNIT001": 1}
    assert report["summary"]["by_severity"] == {"error": 3}
    # Must round-trip through json.
    assert json.loads(render_json(_sample_findings())) == report


def test_render_text_lists_findings_and_summary():
    text = render_text(_sample_findings())
    assert "a.py:3:1: DET001" in text
    assert "3 finding(s)" in text
    assert render_text([]) == "all clean: no findings"


def test_render_rules_mentions_every_rule():
    text = render_rules()
    for rid in rule_ids():
        assert rid in text


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def test_findings_sorted_by_location():
    src = (
        "import time\n"
        "x_mb = 1.5\n"
        "t = time.time()\n"
    )
    findings = lint_source(src, relpath="repro/traces/x.py")
    assert len(findings) == 2
    assert [f.line for f in findings] == sorted(f.line for f in findings)


def test_rule_subset_runs_only_selected(tmp_path):
    src = "import time\nx_mb = 1.5\nt = time.time()\n"
    only_unit = lint_source(
        src, relpath="repro/traces/x.py", rules=resolve_rules(["UNIT001"])
    )
    assert [f.rule for f in only_unit] == ["UNIT001"]


def test_lint_paths_reports_syntax_errors(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    findings = lint_paths([str(tmp_path)])
    assert [f.rule for f in findings] == ["SYNTAX"]
    assert findings[0].severity == "error"


def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(LintError, match="no such file"):
        list(iter_python_files([str(tmp_path / "nope")]))


def test_scoped_rule_skips_out_of_scope_files():
    # DET001 is scoped to scheduler/policies/traces; metrics is exempt.
    src = "import time\nt = time.time()\n"
    assert lint_source(src, relpath="repro/metrics/x.py") == []
    flagged = lint_source(src, relpath="repro/scheduler/x.py")
    assert [f.rule for f in flagged] == ["DET001"]


def test_all_rules_have_titles_and_docs():
    for rule in all_rules():
        assert rule.title
        assert rule.__doc__ and rule.id in rule.__doc__


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
def test_repro_lint_console_main_json(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("peak_mb = 0.5\n")
    from repro.analysis.cli import main

    assert main([str(target), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "UNIT001"


def test_repro_lint_console_main_clean(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("peak_mb = 512\n")
    from repro.analysis.cli import main

    assert main([str(target)]) == 0
    assert "all clean" in capsys.readouterr().out


def test_repro_lint_unknown_rule_exits_2(tmp_path, capsys):
    from repro.analysis.cli import main

    assert main([str(tmp_path), "--rule", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_repro_lint_list_rules(capsys):
    from repro.analysis.cli import main

    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rid in rule_ids():
        assert rid in out


# ----------------------------------------------------------------------
# Property-style invariants (hypothesis)
# ----------------------------------------------------------------------
from hypothesis import given
from hypothesis import strategies as st


@given(
    st.lists(
        st.tuples(
            st.sampled_from(rule_ids()),
            st.integers(min_value=1, max_value=500),
            st.integers(min_value=0, max_value=120),
        ),
        max_size=30,
    )
)
def test_json_report_counts_always_consistent(entries):
    findings = [Finding(r, "m.py", line, col, "msg") for r, line, col in entries]
    report = json_report(findings)
    assert report["count"] == len(findings)
    assert sum(report["summary"]["by_rule"].values()) == len(findings)
    assert sum(report["summary"]["by_severity"].values()) == len(findings)
    assert json.loads(render_json(findings)) == report


@given(st.sets(st.sampled_from(rule_ids()), min_size=1))
def test_noqa_suppresses_exactly_the_listed_rules(suppressed):
    line = "x = 1  # repro: noqa[" + ", ".join(sorted(suppressed)) + "]"
    module = ParsedModule(line + "\n", relpath="repro/traces/x.py")
    for rid in rule_ids():
        assert module.is_suppressed(rid, 1) == (rid in suppressed)
    assert not module.is_suppressed("DET001", 2)


@given(st.sampled_from(["", "peak_mb = 1\n", "import os\n\n\ndef f():\n    return 0\n"]))
def test_clean_sources_stay_clean_under_noqa_everywhere(src):
    # Adding suppression comments to clean code never *creates* findings.
    noisy = "\n".join(
        f"{line}  # repro: noqa" if line.strip() else line
        for line in src.splitlines()
    ) + ("\n" if src else "")
    assert lint_source(src, relpath="repro/traces/x.py") == []
    assert lint_source(noisy, relpath="repro/traces/x.py") == []
