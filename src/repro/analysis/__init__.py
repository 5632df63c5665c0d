"""AST-based simulation-correctness linter.

Enforces the conventions the reproduction's credibility rests on —
deterministic runs, integer-MB memory accounting, and ledger writes
through the cluster's mutators — as mechanical lint rules.  Shallow
per-file rules run by default; the whole-program families (determinism
taint, parallel shared-state races, aggregate coherence) run under
``--deep`` on a linked import/call-graph project.  Each rule is kept
because it flags a seeded bug the test suite misses; see
``docs/STATIC_ANALYSIS.md`` for the catalogue and the mutant table.

Importing this package registers the shipped rules as a side effect.
"""

from __future__ import annotations

from .core import (
    Finding,
    LintError,
    ParsedModule,
    ProjectRule,
    Rule,
    all_rules,
    clear_parse_cache,
    get_rule,
    iter_python_files,
    lint_module,
    lint_paths,
    lint_project_sources,
    lint_source,
    parse_cache_stats,
    parse_cached,
    register,
    resolve_rules,
    rule_ids,
)
from .graph import Project
from .report import json_report, render_json, render_rules, render_text
from .sarif import render_sarif, sarif_report

# Registering the shipped rules happens on import: per-file rules first,
# then the deep whole-program families.
from . import rules as _rules  # noqa: F401
from . import flowrules as _flowrules  # noqa: F401

__all__ = [
    "Finding",
    "LintError",
    "ParsedModule",
    "Project",
    "ProjectRule",
    "Rule",
    "all_rules",
    "clear_parse_cache",
    "get_rule",
    "iter_python_files",
    "json_report",
    "lint_module",
    "lint_paths",
    "lint_project_sources",
    "lint_source",
    "parse_cache_stats",
    "parse_cached",
    "register",
    "render_json",
    "render_rules",
    "render_sarif",
    "render_text",
    "resolve_rules",
    "rule_ids",
    "sarif_report",
]
