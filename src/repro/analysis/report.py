"""Reporters: human-readable text and machine-readable JSON.

The JSON schema (``version`` 2) is stable for CI consumption::

    {
      "version": 2,
      "mode": "shallow" | "deep",
      "count": <int>,
      "findings": [
        {"rule": "DET001", "path": "...", "line": 3, "col": 0,
         "message": "...", "severity": "error"},
        ...
      ],
      "summary": {"by_rule": {...}, "by_severity": {...}}
    }

SARIF rendering lives in :mod:`repro.analysis.sarif` and is exposed
through ``--format sarif``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .core import Finding, all_rules

__all__ = ["json_report", "render_json", "render_rules", "render_text"]

JSON_SCHEMA_VERSION = 2


def json_report(
    findings: Sequence[Finding], mode: str = "shallow"
) -> Dict[str, object]:
    """Build the JSON-serialisable report dictionary."""
    by_rule: Dict[str, int] = {}
    by_severity: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        by_severity[f.severity] = by_severity.get(f.severity, 0) + 1
    return {
        "version": JSON_SCHEMA_VERSION,
        "mode": mode,
        "count": len(findings),
        "findings": [f.to_dict() for f in findings],
        "summary": {"by_rule": by_rule, "by_severity": by_severity},
    }


def render_json(findings: Sequence[Finding], mode: str = "shallow") -> str:
    return json.dumps(
        json_report(findings, mode=mode), indent=2, sort_keys=True
    )


def render_text(findings: Sequence[Finding]) -> str:
    """One line per finding plus a summary tail (empty input -> all clean)."""
    lines: List[str] = []
    if not findings:
        lines.append("all clean: no findings")
    else:
        lines.extend(f.render() for f in findings)
        report = json_report(findings)
        by_rule = report["summary"]["by_rule"]  # type: ignore[index]
        counts = ", ".join(f"{rule}: {n}" for rule, n in sorted(by_rule.items()))
        lines.append(f"{len(findings)} finding(s) ({counts})")
    return "\n".join(lines)


def render_rules() -> str:
    """Table of registered rules for ``lint --list-rules``."""
    lines = []
    for rule in all_rules(deep=True):
        tier = "deep" if rule.deep else "file"
        lines.append(
            f"{rule.id}  [{rule.severity:7s}] [{tier}]  {rule.title}"
        )
        where = (
            "all files" if rule.scope is None
            else ", ".join(rule.scope)
        )
        lines.append(f"        applies to: {where}")
        if rule.exempt:
            lines.append(f"        exempt: {', '.join(rule.exempt)}")
    return "\n".join(lines)
