"""Tier-1 self-check: the shipped tree satisfies its own lint rules.

If this fails, a change reintroduced a determinism/unit-safety/ledger
hazard (or needs an explicit ``# repro: noqa[RULE]`` with justification).
"""

from pathlib import Path

import repro
from repro.analysis import lint_paths, render_text, rule_ids

PACKAGE_DIR = Path(repro.__file__).resolve().parent

EXPECTED_RULES = ["DET001", "UNIT001", "UNIT002"]

EXPECTED_DEEP_RULES = EXPECTED_RULES + [
    "DET101",
    "DET102",
    "DET103",
    "INV101",
    "RACE001",
    "RACE002",
    "RACE003",
]


def test_shipped_rules_registered():
    assert rule_ids() == EXPECTED_RULES


def test_shipped_deep_rules_registered():
    assert sorted(rule_ids(deep=True)) == sorted(EXPECTED_DEEP_RULES)


def test_package_tree_is_lint_clean():
    findings = lint_paths([str(PACKAGE_DIR)])
    assert findings == [], "\n" + render_text(findings)


def test_package_tree_is_deep_lint_clean():
    # The whole-program pass must hold on the shipped tree without any
    # baseline suppressions: determinism taint, worker shared-state, and
    # ledger-coherence hazards are all fix-on-sight.
    findings = lint_paths([str(PACKAGE_DIR)], deep=True)
    assert findings == [], "\n" + render_text(findings)


def test_analysis_subpackage_is_deep_lint_clean():
    # The analyzer must satisfy its own deep rules even when linted as a
    # standalone path set (smaller project graph, different roots).
    findings = lint_paths([str(PACKAGE_DIR / "analysis")], deep=True)
    assert findings == [], "\n" + render_text(findings)


def test_obs_subpackage_is_lint_clean():
    # The telemetry layer's wall-clock use (the layer table) must stay
    # outside the determinism-scoped dirs; linting it directly keeps the
    # subpackage covered even if the tree-wide path set changes.
    findings = lint_paths([str(PACKAGE_DIR / "obs")])
    assert findings == [], "\n" + render_text(findings)


def test_examples_and_benchmarks_are_lint_clean():
    # Determinism rules are path-scoped to the package, but the generic
    # rule (UNIT001) holds for the driver scripts too.
    repo_root = PACKAGE_DIR.parent.parent.parent
    findings = []
    for sub in ("examples", "benchmarks"):
        d = repo_root / sub
        if d.is_dir():
            findings.extend(lint_paths([str(d)]))
    assert findings == [], "\n" + render_text(findings)
