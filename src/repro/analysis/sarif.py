"""SARIF 2.1.0 reporter for CI code-scanning integration.

Emits the minimal valid subset GitHub code scanning consumes: one run,
the tool driver with per-rule metadata, and one result per finding with
a physical location.  Paths are package-relative so uploads are stable
across checkout locations.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from .core import Finding, _relativize, all_rules

__all__ = ["render_sarif", "sarif_report"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

_LEVELS = {"error": "error", "warning": "warning"}


def _rule_metadata() -> List[Dict[str, object]]:
    rules = []
    for rule in all_rules(deep=True):
        doc = (rule.__doc__ or "").strip().splitlines()
        full = doc[0].strip() if doc else rule.title
        rules.append(
            {
                "id": rule.id,
                "shortDescription": {"text": rule.title},
                "fullDescription": {"text": full},
                "defaultConfiguration": {
                    "level": _LEVELS.get(rule.severity, "warning")
                },
            }
        )
    return rules


def sarif_report(findings: Sequence[Finding]) -> Dict[str, object]:
    """Build the SARIF 2.1.0 document as a JSON-serialisable dict."""
    results = []
    for f in findings:
        results.append(
            {
                "ruleId": f.rule,
                "level": _LEVELS.get(f.severity, "warning"),
                "message": {"text": f.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": _relativize(f.path),
                            },
                            "region": {
                                "startLine": max(f.line, 1),
                                "startColumn": f.col + 1,
                            },
                        }
                    }
                ],
            }
        )
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/"
                            "STATIC_ANALYSIS.md"
                        ),
                        "rules": _rule_metadata(),
                    }
                },
                "results": results,
            }
        ],
    }


def render_sarif(findings: Sequence[Finding]) -> str:
    return json.dumps(sarif_report(findings), indent=2, sort_keys=True)
