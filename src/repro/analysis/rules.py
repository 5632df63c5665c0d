"""The shipped simulation-correctness rules.

Each rule protects one invariant the paper reproduction depends on:

* **DET001** — determinism: no wall-clock reads in simulation code.
* **UNIT001 / UNIT002** — unit safety: memory stays integer mebibytes,
  float comparisons in metrics code use tolerances.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from .core import Finding, ParsedModule, Rule, register

__all__ = [
    "MbFloatRule",
    "MetricsFloatEqualityRule",
    "WallClockRule",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
@register
class WallClockRule(Rule):
    """DET001: simulation code must not read the wall clock.

    Simulated time comes from the event engine; any ``time.time()`` or
    ``datetime.now()`` in scheduler/policy/trace code makes runs
    irreproducible across hosts and reruns.
    """

    id = "DET001"
    title = "no wall-clock reads in simulation code"
    scope = ("repro/scheduler/", "repro/policies/", "repro/traces/")

    _BANNED_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )
    _BANNED_TIME_IMPORTS = frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns",
         "perf_counter", "perf_counter_ns"}
    )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in self._BANNED_CALLS:
                    yield self.finding(
                        module,
                        node,
                        f"wall-clock call {name}() in simulation code; "
                        "use engine/simulated time instead",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    a.name for a in node.names
                    if a.name in self._BANNED_TIME_IMPORTS
                )
                if bad:
                    yield self.finding(
                        module,
                        node,
                        f"importing wall-clock reader(s) {', '.join(bad)} "
                        "from 'time' in simulation code",
                    )


# ----------------------------------------------------------------------
def _mb_named(name: Optional[str]) -> bool:
    return bool(name) and name.lower().endswith("_mb")


def _target_names(target: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(name, node)`` for every simple name an assignment binds."""
    if isinstance(target, ast.Name):
        yield target.id, target
    elif isinstance(target, ast.Attribute):
        yield target.attr, target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _float_producer(value: ast.AST) -> Optional[str]:
    """Why ``value`` yields a non-integer, or None if it looks integral."""
    if isinstance(value, ast.Constant) and isinstance(value.value, float):
        return f"float literal {value.value!r}"
    if isinstance(value, ast.Call) and dotted_name(value.func) == "float":
        return "float(...) conversion"
    if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Div):
        return "true division (/)"
    if isinstance(value, ast.IfExp):
        return _float_producer(value.body) or _float_producer(value.orelse)
    return None


@register
class MbFloatRule(Rule):
    """UNIT001: memory quantities (``*_mb``) stay integer mebibytes.

    The lend/borrow ledgers are exact integer arithmetic; a float
    leaking into an ``_mb`` binding breaks conservation checks with
    rounding drift.  Use ``//``, ``int(round(...))`` or
    ``repro.core.units.gb_to_mb`` at the boundary.
    """

    id = "UNIT001"
    title = "*_mb bindings must be integer (no float literals, float(), or /)"

    def _flag(
        self, module: ParsedModule, name: str, value: ast.AST, node: ast.AST
    ) -> Iterator[Finding]:
        why = _float_producer(value)
        if why is not None:
            yield self.finding(
                module,
                node,
                f"'{name}' is a memory quantity but is bound from {why}; "
                "memory is integer MB (use //, int(round(...)), or gb_to_mb)",
            )

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                for name, _tnode in (
                    pair for t in node.targets for pair in _target_names(t)
                ):
                    if _mb_named(name):
                        yield from self._flag(module, name, node.value, node)
            elif isinstance(node, ast.AnnAssign):
                for name, _tnode in _target_names(node.target):
                    if not _mb_named(name):
                        continue
                    if (
                        isinstance(node.annotation, ast.Name)
                        and node.annotation.id == "float"
                    ):
                        yield self.finding(
                            module,
                            node,
                            f"'{name}' is annotated 'float'; memory quantities "
                            "are integer MB",
                        )
                    if node.value is not None:
                        yield from self._flag(module, name, node.value, node)
            elif isinstance(node, ast.AugAssign):
                for name, _tnode in _target_names(node.target):
                    if _mb_named(name):
                        if isinstance(node.op, ast.Div):
                            yield self.finding(
                                module,
                                node,
                                f"'{name} /= ...' produces a float; use //= "
                                "to keep memory integer MB",
                            )
                        else:
                            yield from self._flag(module, name, node.value, node)
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg is not None and _mb_named(kw.arg):
                        yield from self._flag(module, kw.arg, kw.value, kw.value)


# ----------------------------------------------------------------------
@register
class MetricsFloatEqualityRule(Rule):
    """UNIT002: metrics/slowdown code never compares floats with ==/!=.

    Slowdown factors and normalised metrics are products of float
    arithmetic; exact equality silently flips with operation order.
    Use ``math.isclose`` with an explicit tolerance.
    """

    id = "UNIT002"
    title = "no ==/!= against float expressions in metrics/slowdown code"
    scope = ("repro/metrics/", "repro/slowdown/")

    def _is_floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        if isinstance(node, ast.Call) and dotted_name(node.func) == "float":
            return True
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._is_floatish(node.left) or self._is_floatish(node.right)
        if isinstance(node, ast.UnaryOp):
            return self._is_floatish(node.operand)
        return False

    def check(self, module: ParsedModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_floatish(left) or self._is_floatish(right):
                    sym = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        module,
                        node,
                        f"float {sym} comparison; use math.isclose with an "
                        "explicit tolerance",
                    )
