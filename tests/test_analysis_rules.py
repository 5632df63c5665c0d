"""Per-rule tests: each shipped rule triggers on a known-bad snippet and
is silenced by ``# repro: noqa[RULE]`` on the offending line."""

import pytest

from repro.analysis import lint_source, resolve_rules


def run_rule(rule_id, src, relpath):
    return lint_source(src, relpath=relpath, rules=resolve_rules([rule_id]))


def add_noqa(src, rule_id, needle):
    """Append the suppression comment to every line containing needle."""
    out = []
    for line in src.splitlines():
        if needle in line:
            line = f"{line}  # repro: noqa[{rule_id}]"
        out.append(line)
    return "\n".join(out) + "\n"


CASES = {
    # rule id -> (bad snippet, relpath it must fire in, needle marking the
    # offending line(s), expected number of findings)
    "DET001": (
        "import time\n\n\ndef now():\n    return time.time()\n",
        "repro/scheduler/clock.py",
        "time.time()",
        1,
    ),
    "UNIT001": (
        "def split(total_mb, n):\n    part_mb = total_mb / n\n    return part_mb\n",
        "repro/cluster/split.py",
        "total_mb / n",
        1,
    ),
    "UNIT002": (
        "def same(a, b):\n    return a == b * 1.0 or a == 0.5\n",
        "repro/metrics/eq.py",
        "a ==",
        2,
    ),
}


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_triggers_on_bad_snippet(rule_id):
    src, relpath, _needle, expected = CASES[rule_id]
    findings = run_rule(rule_id, src, relpath)
    assert len(findings) == expected
    assert all(f.rule == rule_id for f in findings)
    assert all(f.severity == "error" for f in findings)


@pytest.mark.parametrize("rule_id", sorted(CASES))
def test_rule_suppressed_by_noqa(rule_id):
    src, relpath, needle, _expected = CASES[rule_id]
    suppressed = add_noqa(src, rule_id, needle)
    assert run_rule(rule_id, suppressed, relpath) == []


# ----------------------------------------------------------------------
# Rule-specific edge cases
# ----------------------------------------------------------------------
def test_det001_only_fires_in_simulation_modules():
    src, _relpath, _needle, _n = CASES["DET001"]
    assert run_rule("DET001", src, "repro/experiments/clock.py") == []


def test_det001_flags_from_time_import():
    src = "from time import monotonic\n"
    findings = run_rule("DET001", src, "repro/policies/x.py")
    assert len(findings) == 1 and "monotonic" in findings[0].message


def test_unit001_flags_float_literal_annotation_and_keyword():
    src = (
        "def f(build):\n"
        "    a_mb = 2.5\n"
        "    b_mb: float = 3\n"
        "    return build(peak_mb=float(a_mb))\n"
    )
    findings = run_rule("UNIT001", src, "repro/jobs/x.py")
    assert len(findings) == 3


def test_unit001_allows_integer_arithmetic():
    src = (
        "def f(total, n):\n"
        "    a_mb = total // n\n"
        "    b_mb = int(round(total / n))\n"
        "    c_mb: int = 0\n"
        "    return a_mb + b_mb + c_mb\n"
    )
    assert run_rule("UNIT001", src, "repro/jobs/x.py") == []


def test_unit002_scoped_to_metrics_and_slowdown():
    src = "ok = 1.0 == 2.0\n"
    assert run_rule("UNIT002", src, "repro/traces/x.py") == []
    assert len(run_rule("UNIT002", src, "repro/slowdown/x.py")) == 1


def test_unit002_allows_integer_and_length_compares():
    src = "def f(x, xs):\n    return x == 1 and len(xs) != 0\n"
    assert run_rule("UNIT002", src, "repro/metrics/x.py") == []
