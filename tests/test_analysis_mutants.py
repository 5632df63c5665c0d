"""The mutants that justify each lint rule stay flagged.

``tests/lint_mutants.py`` holds the seeded-mutant table behind the rule
set: a rule stays only while it flags a planted bug that the rest of the
tier-1 suite misses.  This test applies each such mutant in memory and
checks that its rule still reports the mutated lines, so a rule change
that loses the justifying catch fails here rather than going unnoticed.
The full table (the suite column included) is ``make lint-mutants``.
"""

import ast
from pathlib import Path

import pytest

from lint_mutants import MISSED, MUTANTS, apply_mutant, edited_lines
from repro.analysis import get_rule, lint_project_sources, lint_source

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

JUSTIFYING = [(i, m) for i, m in enumerate(MUTANTS, start=1) if i in MISSED]


def _sources():
    return {
        "repro/" + p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
        for p in sorted(SRC.rglob("*.py"))
    }


def _statement_span(source, line):
    """Lines of the innermost statement starting at or enclosing
    ``line`` (a loop header's span includes its body)."""
    best = None
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and node.lineno <= line <= node.end_lineno:
            if best is None or node.lineno > best.lineno:
                best = node
    return range(best.lineno, best.end_lineno + 1) if best else range(0)


def test_every_anchor_occurs_once():
    for mutant in MUTANTS:
        source = (SRC / mutant.relpath).read_text(encoding="utf-8")
        assert source.count(mutant.anchor) == 1, mutant


@pytest.mark.parametrize(
    "mutant", [m for _i, m in JUSTIFYING],
    ids=[f"{i}-{m.rule}" for i, m in JUSTIFYING],
)
def test_rule_flags_the_mutated_lines(mutant):
    relpath = "repro/" + mutant.relpath
    source = (SRC / mutant.relpath).read_text(encoding="utf-8")
    mutated = apply_mutant(source, mutant)
    rule = get_rule(mutant.rule)  # LintError once the rule is deleted
    if rule.deep:
        sources = _sources()
        sources[relpath] = mutated
        findings = lint_project_sources(sources, rules=[rule])
    else:
        findings = lint_source(mutated, path=relpath, relpath=relpath,
                               rules=[rule])
    lines = set(edited_lines(source, mutant))
    lines.update(_statement_span(mutated, min(lines)))
    flagged = [f.line for f in findings if f.path == relpath]
    assert any(line in lines for line in flagged), (flagged, sorted(lines))
