"""Standalone entry point for the linter (``repro-lint`` console script).

``repro lint`` / ``python -m repro.cli lint`` route here too, so CLI,
pytest self-check, and CI all share one implementation.

Exit codes (identical in shallow and deep modes):

* ``0`` — clean
* ``1`` — findings
* ``2`` — usage or internal error (unknown rule, bad path)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import LintError, lint_paths, resolve_rules, rule_ids
from .report import render_json, render_rules, render_text
from .sarif import render_sarif

__all__ = ["add_lint_arguments", "default_lint_paths", "main", "run_lint"]


def default_lint_paths() -> List[str]:
    """The installed ``repro`` package tree (what the self-check lints)."""
    return [str(Path(__file__).resolve().parent.parent)]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared lint options to ``parser``."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--rule", action="append", metavar="ID", dest="rules",
        help="run only this rule (repeatable); default: all rules "
        "of the selected mode (deep rules are selectable without --deep)",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help="additionally run the whole-program rule families "
        "(DET101-103, RACE001-003, INV101) over the linked project",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe the registered rules and exit",
    )


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint invocation; returns the process exit code."""
    if args.list_rules:
        print(render_rules())
        return 0
    deep = getattr(args, "deep", False)
    output = getattr(args, "output", None)
    try:
        rules = resolve_rules(args.rules, deep=deep)
        paths = [str(p) for p in (args.paths or default_lint_paths())]
        findings = lint_paths(paths, rules, deep=deep)
    except LintError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    mode = "deep" if deep else "shallow"
    if args.format == "json":
        _emit(render_json(findings, mode=mode), output)
    elif args.format == "sarif":
        _emit(render_sarif(findings), output)
    else:
        _emit(render_text(findings), output)
    return 1 if findings else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based simulation-correctness linter "
        f"(file rules: {', '.join(rule_ids())}; "
        f"deep rules: {', '.join(sorted(set(rule_ids(deep=True)) - set(rule_ids())))}). "
        "Exit codes: 0 clean, 1 findings, 2 usage/internal error.",
    )
    add_lint_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    return run_lint(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
