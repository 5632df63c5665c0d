"""Whole-program rule families over the call graph and taint engine.

Three deep families (run under ``repro lint --deep`` or by explicit
``--rule`` selection):

* ``DET1xx`` — determinism taint: iteration-order- and
  environment-tainted values must not reach float accumulations,
  ordered outputs, or RNG seeds.
* ``RACE0xx`` — parallel shared state: module-level mutable state and
  unpicklable callables reachable from process-pool workers.
* ``INV101`` — aggregate coherence: the cluster ledger fields may only
  be written inside the owning mutators, which maintain the O(1)
  aggregates and notify listeners.

Analysis artefacts (float summaries, per-function taint runs) are
memoised on the :class:`~repro.analysis.graph.Project` so the families
share one pass over each function.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .core import Finding, ProjectRule, register
from .dataflow import (
    ENV,
    FLOAT,
    UELEM,
    UNORDERED,
    TaintAnalysis,
    compute_float_summaries,
)
from .graph import FunctionInfo, ModuleInfo, Project, dotted
from .rules import _target_names

__all__ = ["LEDGER_FIELDS"]


# ----------------------------------------------------------------------
# Shared, memoised analysis artefacts
# ----------------------------------------------------------------------
def _summaries(project: Project):
    cached = getattr(project, "_float_summaries", None)
    if cached is None:
        cached = compute_float_summaries(project)
        project._float_summaries = cached
    return cached


def _analysis(project: Project, fn: FunctionInfo) -> TaintAnalysis:
    cache: Dict[str, TaintAnalysis] = getattr(project, "_taint_cache", None)
    if cache is None:
        cache = {}
        project._taint_cache = cache
    analysis = cache.get(fn.qname)
    if analysis is None:
        analysis = TaintAnalysis(project, fn, _summaries(project)).run()
        cache[fn.qname] = analysis
    return analysis


def _simple_stmts(fn: FunctionInfo) -> Iterator[ast.stmt]:
    """Statements with a recorded pre-environment (non-compound ones)."""
    for node in ast.walk(fn.node):
        if isinstance(node, ast.stmt) and not isinstance(
            node,
            (ast.For, ast.While, ast.If, ast.With, ast.Try,
             ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            yield node


def _call_last(node: ast.Call) -> str:
    name = dotted(node.func)
    return name.rsplit(".", 1)[-1] if name else ""


def _finding(
    rule: ProjectRule, fn: FunctionInfo, node: ast.AST, message: str
) -> Finding:
    return Finding(
        rule=rule.id,
        path=fn.module.parsed.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
        severity=rule.severity,
    )


# ----------------------------------------------------------------------
# DET1xx — determinism taint
# ----------------------------------------------------------------------
@register
class UnorderedFloatAccumulationRule(ProjectRule):
    """DET101: float accumulation over unordered iteration.

    Float addition is not associative, so summing values in
    set/``os.environ``/``as_completed`` iteration order makes the result
    depend on hash seeding and completion timing.  Sort the iterable
    (``sorted(...)``) or accumulate integers.  Integer accumulations are
    exempt — they are order-independent.
    """

    id = "DET101"
    title = "float accumulation over unordered iteration order"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn in project.iter_functions():
            analysis = _analysis(project, fn)
            yield from self._check_loops(project, fn, analysis)
            yield from self._check_sums(fn, analysis)

    def _check_loops(
        self, project: Project, fn: FunctionInfo, analysis: TaintAnalysis
    ) -> Iterator[Finding]:
        for loop in ast.walk(fn.node):
            if not isinstance(loop, ast.For):
                continue
            env = analysis.env_before.get(id(loop), {})
            if UNORDERED not in analysis.taint_of(loop.iter, env):
                continue
            for body_stmt in loop.body:
                for inner in ast.walk(body_stmt):
                    found = self._accumulation(inner, analysis)
                    if found is not None:
                        name, node = found
                        yield _finding(
                            self, fn, node,
                            f"float accumulation into '{name}' inside "
                            "iteration over an unordered container; the sum "
                            "depends on iteration order — iterate "
                            "sorted(...) or accumulate integers",
                        )

    def _accumulation(
        self, node: ast.AST, analysis: TaintAnalysis
    ) -> Optional[Tuple[str, ast.AST]]:
        if isinstance(node, ast.AugAssign) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            env = analysis.env_before.get(id(node), {})
            value_labels = analysis.taint_of(node.value, env)
            if UELEM not in value_labels:
                return None
            target_labels = (
                env.get(node.target.id, frozenset())
                if isinstance(node.target, ast.Name)
                else frozenset()
            )
            if FLOAT in value_labels or FLOAT in target_labels:
                name = (
                    node.target.id
                    if isinstance(node.target, ast.Name)
                    else getattr(node.target, "attr", "<target>")
                )
                return name, node
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            # ``x = x + e`` self-accumulation.
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.BinOp)
                and isinstance(value.op, (ast.Add, ast.Sub))
                and isinstance(value.left, ast.Name)
                and value.left.id == target.id
            ):
                env = analysis.env_before.get(id(node), {})
                rhs_labels = analysis.taint_of(value.right, env)
                acc_labels = env.get(target.id, frozenset())
                if UELEM in rhs_labels and (
                    FLOAT in rhs_labels or FLOAT in acc_labels
                ):
                    return target.id, node
        return None

    def _check_sums(
        self, fn: FunctionInfo, analysis: TaintAnalysis
    ) -> Iterator[Finding]:
        for stmt in _simple_stmts(fn):
            env = analysis.env_before.get(id(stmt))
            if env is None:
                continue
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                if _call_last(node) not in ("sum", "fsum"):
                    continue
                labels = analysis.taint_of(node.args[0], env)
                if UNORDERED in labels and FLOAT in labels:
                    yield _finding(
                        self, fn, node,
                        "sum() of float values drawn from an unordered "
                        "container; the result depends on iteration order "
                        "— sum over sorted(...) instead",
                    )


@register
class EnvironmentSeedRule(ProjectRule):
    """DET102: environment-derived values must not reach RNG seeding.

    A seed pulled from ``os.environ`` silently varies between machines
    and CI runs, defeating the record/replay contract.  Seeds flow
    through scenario/config objects only.
    """

    id = "DET102"
    title = "os.environ-derived value flows into an RNG seed"

    _SEED_CALLS = frozenset(
        {"seed", "ensure_rng", "default_rng", "stable_seed", "spawn_seed"}
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn in project.iter_functions():
            analysis = _analysis(project, fn)
            for stmt in _simple_stmts(fn):
                env = analysis.env_before.get(id(stmt))
                if env is None:
                    continue
                yield from self._check_stmt(fn, analysis, stmt, env)

    def _check_stmt(self, fn, analysis, stmt, env) -> Iterator[Finding]:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                if _call_last(node) in self._SEED_CALLS:
                    for arg in node.args:
                        if ENV in analysis.taint_of(arg, env):
                            yield _finding(
                                self, fn, node,
                                "seed argument derives from os.environ; "
                                "seeds must come from scenario config so "
                                "runs are reproducible",
                            )
                            break
                for kw in node.keywords:
                    if kw.arg == "seed" and ENV in analysis.taint_of(
                        kw.value, env
                    ):
                        yield _finding(
                            self, fn, node,
                            "seed= keyword derives from os.environ; seeds "
                            "must come from scenario config",
                        )
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for name, tnode in (
                pair for t in targets for pair in _target_names(t)
            ):
                if "seed" in name.lower() and ENV in analysis.taint_of(
                    stmt.value, env
                ):
                    yield _finding(
                        self, fn, tnode,
                        f"'{name}' binds an os.environ-derived value; seeds "
                        "must come from scenario config",
                    )


@register
class UnorderedMaterializationRule(ProjectRule):
    """DET103: unordered containers materialised into ordered sequences.

    ``list(a_set)``, a list comprehension over a set, or appending
    set-iteration elements produces a sequence whose order varies with
    hash seeding; anything written to records or compared
    element-wise inherits the nondeterminism.  Wrap the source in
    ``sorted(...)``.
    """

    id = "DET103"
    title = "unordered container materialised without sorting"
    severity = "warning"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn in project.iter_functions():
            analysis = _analysis(project, fn)
            for stmt in _simple_stmts(fn):
                env = analysis.env_before.get(id(stmt))
                if env is None:
                    continue
                for node in ast.walk(stmt):
                    yield from self._check_expr(fn, analysis, node, env)

    def _check_expr(self, fn, analysis, node, env) -> Iterator[Finding]:
        if isinstance(node, ast.Call) and len(node.args) == 1:
            last = _call_last(node)
            if last in ("list", "tuple") and UNORDERED in analysis.taint_of(
                node.args[0], env
            ):
                yield _finding(
                    self, fn, node,
                    f"{last}() materialises an unordered container into a "
                    "sequence with nondeterministic order; use sorted(...)",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
                and UELEM in analysis.taint_of(node.args[0], env)
            ):
                yield _finding(
                    self, fn, node,
                    "appending elements drawn from unordered iteration; "
                    "the list order is nondeterministic — iterate "
                    "sorted(...)",
                )
        elif isinstance(node, ast.ListComp):
            for gen in node.generators:
                if UNORDERED in analysis.taint_of(gen.iter, env):
                    yield _finding(
                        self, fn, node,
                        "list comprehension over an unordered container "
                        "has nondeterministic order; iterate sorted(...)",
                    )
                    break


# ----------------------------------------------------------------------
# RACE0xx — parallel shared state
# ----------------------------------------------------------------------
_POOL_METHODS = frozenset(
    {"submit", "map", "imap", "imap_unordered", "apply_async", "starmap"}
)
_POOL_BASE_HINTS = ("pool", "executor", "procs")
_MUTATOR_METHODS = frozenset(
    {"append", "add", "update", "pop", "popitem", "setdefault", "extend",
     "insert", "remove", "discard", "clear", "put", "resize"}
)
_HANDLE_CALLS = frozenset(
    {"open", "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
     "socket", "Popen", "TemporaryFile", "NamedTemporaryFile"}
)


def _dispatch_sites(
    project: Project,
) -> Tuple[List[Tuple[FunctionInfo, ast.Call, ast.AST, Optional[str]]], Set[str]]:
    """All pool dispatch targets: (dispatching fn, call, target expr,
    resolved qname) plus the set of initializer-root qnames."""
    sites: List[Tuple[FunctionInfo, ast.Call, ast.AST, Optional[str]]] = []
    init_roots: Set[str] = set()
    for fn in project.iter_functions():
        mod = fn.module
        local_types = project.local_types(mod, fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _POOL_METHODS
                and node.args
            ):
                base = dotted(func.value) or ""
                if any(h in base.lower() for h in _POOL_BASE_HINTS):
                    target = node.args[0]
                    qname = project.resolve_callable(
                        mod, fn, target, local_types
                    )
                    sites.append((fn, node, target, qname))
            for kw in node.keywords:
                if kw.arg in ("initializer", "target"):
                    qname = project.resolve_callable(
                        mod, fn, kw.value, local_types
                    )
                    sites.append((fn, node, kw.value, qname))
                    if kw.arg == "initializer" and qname:
                        init_roots.add(qname)
    return sites, init_roots


def _worker_reachable(project: Project) -> Tuple[Set[str], Set[Tuple[str, str]]]:
    """Worker-reachable function qnames and sanctioned (module, global)
    pairs (globals the pool initializer resets after fork)."""
    sites, init_roots = _dispatch_sites(project)
    roots = {q for _fn, _call, _t, q in sites if q} | init_roots
    reachable = project.reachable(roots)
    sanctioned: Set[Tuple[str, str]] = set()
    for qname in project.reachable(init_roots):
        fn = project.functions.get(qname)
        if fn is None:
            continue
        mod = fn.module
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                owner = _global_owner(project, mod, fn, node.func.value.id)
                if owner is not None:
                    sanctioned.add(owner)
            elif isinstance(node, ast.Global):
                for name in node.names:
                    sanctioned.add((mod.name, name))
    return reachable, sanctioned


def _global_owner(
    project: Project, mod: ModuleInfo, fn: FunctionInfo, name: str
) -> Optional[Tuple[str, str]]:
    """(module, global) if ``name`` denotes module-level mutable state."""
    if name in _local_binds(fn):
        return None
    if name in mod.global_names:
        return (mod.name, name)
    if name in mod.imports:
        qual = mod.imports[name]
        owner_mod, _, var = qual.rpartition(".")
        owner = project.modules.get(owner_mod)
        if owner is not None and var in owner.global_names:
            return (owner_mod, var)
    return None


def _local_binds(fn: FunctionInfo) -> Set[str]:
    cached = getattr(fn, "_local_binds", None)
    if cached is not None:
        return cached
    names: Set[str] = set()
    args = fn.node.args
    for arg in (
        list(args.args) + list(args.kwonlyargs) + list(args.posonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    globals_declared: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Global):
            globals_declared.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for name, _tnode in _target_names(target):
                    names.add(name)
        elif isinstance(node, ast.For):
            for name, _tnode in _target_names(node.target):
                names.add(name)
        elif isinstance(node, ast.With):
            for item in node.items:
                if item.optional_vars is not None:
                    for name, _tnode in _target_names(item.optional_vars):
                        names.add(name)
    names -= globals_declared
    fn._local_binds = names
    return names


@register
class WorkerSharedStateRule(ProjectRule):
    """RACE001: module-level mutable state written from pool workers.

    After ``fork``/``spawn`` each worker has its own copy of module
    globals; writes are invisible to the parent and to other workers,
    and cache contents diverge between processes, breaking
    bit-reproducibility.  State the pool ``initializer`` explicitly
    resets after fork is sanctioned (fresh per worker by construction);
    everything else must be passed explicitly or returned as results.
    """

    id = "RACE001"
    title = "module-level mutable state written from a parallel worker"

    def check_project(self, project: Project) -> Iterator[Finding]:
        reachable, sanctioned = _worker_reachable(project)
        if not reachable:
            return
        for qname in sorted(reachable):
            fn = project.functions.get(qname)
            if fn is None:
                continue
            yield from self._check_fn(project, fn, sanctioned)

    def _check_fn(self, project, fn, sanctioned) -> Iterator[Finding]:
        mod = fn.module
        for node in ast.walk(fn.node):
            owner: Optional[Tuple[str, str]] = None
            where: ast.AST = node
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                owner = _global_owner(project, mod, fn, node.func.value.id)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if isinstance(base, ast.Name) and base is not target:
                        owner = _global_owner(project, mod, fn, base.id)
                        if owner:
                            where = target
                            break
                    if (
                        isinstance(target, ast.Name)
                        and target.id not in _local_binds(fn)
                        and target.id in mod.global_names
                    ):
                        # global-declared rebind
                        owner = (mod.name, target.id)
                        where = target
                        break
            if owner is not None and owner not in sanctioned:
                yield _finding(
                    self, fn, where,
                    f"worker-reachable function '{fn.name}' writes "
                    f"module-level state '{owner[1]}' of {owner[0]}; "
                    "after fork the write is process-local and runs stop "
                    "being bit-identical — pass state explicitly or reset "
                    "it in the pool initializer",
                )


@register
class WorkerModuleHandleRule(ProjectRule):
    """RACE002: module-level handles/locks in worker-imported modules.

    A file handle, lock, or socket created at import time is duplicated
    by ``fork`` (sharing file offsets) or re-created under ``spawn``;
    either way worker behaviour diverges from the parent.  Create
    handles inside functions, after the pool has started.
    """

    id = "RACE002"
    title = "module-level handle/lock in a worker-reachable module"
    severity = "warning"

    def check_project(self, project: Project) -> Iterator[Finding]:
        reachable, _sanctioned = _worker_reachable(project)
        worker_modules = set()
        for qname in reachable:
            fn = project.functions.get(qname)
            if fn is not None:
                worker_modules.add(fn.module.name)
        for mod_name in sorted(worker_modules):
            mod = project.modules[mod_name]
            for stmt in mod.parsed.tree.body:
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                value = stmt.value
                if (
                    isinstance(value, ast.Call)
                    and _call_last(value) in _HANDLE_CALLS
                ):
                    yield Finding(
                        rule=self.id,
                        path=mod.parsed.path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        message=(
                            f"module-level {_call_last(value)}() in "
                            f"worker-reachable module {mod_name}; handles "
                            "must be created per process, inside functions"
                        ),
                        severity=self.severity,
                    )


@register
class UnpicklableDispatchRule(ProjectRule):
    """RACE003: unpicklable callables dispatched to a process pool.

    Lambdas and nested functions cannot be pickled, so
    ``pool.submit(lambda: ...)`` fails at runtime (or silently under
    fork-without-exec on some platforms).  Dispatch module-level
    functions only.
    """

    id = "RACE003"
    title = "lambda/nested function dispatched to a process pool"

    def check_project(self, project: Project) -> Iterator[Finding]:
        sites, _init_roots = _dispatch_sites(project)
        for fn, _call, target, qname in sites:
            if isinstance(target, ast.Lambda):
                yield _finding(
                    self, fn, target,
                    "lambda dispatched to a process pool cannot be "
                    "pickled; define a module-level function",
                )
            elif qname is None and isinstance(target, ast.Name):
                if self._is_nested_def(fn, target.id):
                    yield _finding(
                        self, fn, target,
                        f"nested function '{target.id}' dispatched to a "
                        "process pool cannot be pickled; move it to module "
                        "level",
                    )

    def _is_nested_def(self, fn: FunctionInfo, name: str) -> bool:
        for node in ast.walk(fn.node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node is not fn.node
                and node.name == name
            ):
                return True
        return False


# ----------------------------------------------------------------------
# INV101 — aggregate coherence
# ----------------------------------------------------------------------
#: Cluster ledger state: raw vectors, capacity, busy bookkeeping and
#: O(1) aggregates.  Writes outside the owning class (the one defining
#: ``check_invariants``) bypass aggregate maintenance.
LEDGER_FIELDS = frozenset(
    {"local_used_mb", "lent_mb", "remote_held_mb", "busy", "job_on_node",
     "lender_jobs", "busy_count", "busy_large_count", "local_used_total",
     "lent_total", "memory_node_count", "startable_count", "_free_local",
     "_memnode", "allocations", "columns", "capacity_mb",
     "_total_capacity"}
)
#: Generic names also used outside ledger classes; only flagged when the
#: written object's type resolves to a ledger-owning class.
_AMBIGUOUS_FIELDS = frozenset({"busy", "allocations"})


def _owner_classes(project: Project) -> Set[str]:
    return {
        qname
        for qname, cls in project.classes.items()
        if "check_invariants" in cls.methods
    }


def _attr_store_targets(stmt: ast.stmt) -> Iterator[Tuple[ast.AST, str]]:
    """Yield (base expr, attr name) for attribute stores, peeling
    subscript wrappers: ``x.f[i] = ...`` -> (x, f)."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    for target in targets:
        node = target
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Attribute):
            yield node.value, node.attr


def _base_is_owner(
    project: Project,
    fn: FunctionInfo,
    base: ast.AST,
    owners: Set[str],
    local_types: Dict[str, str],
) -> Optional[bool]:
    """True/False when the base expression's class is known, None if not."""
    if isinstance(base, ast.Name):
        if base.id in ("self", "cls"):
            if fn.cls is not None:
                return f"{fn.module.name}.{fn.cls}" in owners
            return None
        cls = local_types.get(base.id)
        return (cls in owners) if cls else None
    if (
        isinstance(base, ast.Attribute)
        and isinstance(base.value, ast.Name)
        and base.value.id == "self"
        and fn.cls is not None
    ):
        cls_info = project.classes.get(f"{fn.module.name}.{fn.cls}")
        if cls_info is not None:
            cls = cls_info.attr_types.get(base.attr)
            return (cls in owners) if cls else None
    return None


@register
class LedgerWriteRule(ProjectRule):
    """INV101: ledger fields written outside the owning mutators.

    Direct pokes like ``cluster.lent_mb[n] -= mb`` or
    ``cluster.capacity_mb[n] += mb`` from policies, experiments or
    what-if desync the O(1) aggregates and the demand listeners; all
    mutations go through the owning class's mutators
    (``apply``/``release``/``resize``, and ``expand_capacity`` for
    capacity), which maintain both.
    """

    id = "INV101"
    title = "ledger field written outside the owning cluster mutator"

    def check_project(self, project: Project) -> Iterator[Finding]:
        owners = _owner_classes(project)
        if not owners:
            return
        for fn in project.iter_functions():
            in_owner = (
                fn.cls is not None
                and f"{fn.module.name}.{fn.cls}" in owners
            )
            if in_owner:
                continue  # the owning class's methods are the mutators
            local_types = project.local_types(fn.module, fn)
            for stmt in ast.walk(fn.node):
                if not isinstance(stmt, ast.stmt):
                    continue
                for base, attr in _attr_store_targets(stmt):
                    if attr not in LEDGER_FIELDS:
                        continue
                    is_owner = _base_is_owner(
                        project, fn, base, owners, local_types
                    )
                    if attr in _AMBIGUOUS_FIELDS and is_owner is not True:
                        continue
                    if is_owner is False:
                        continue
                    yield _finding(
                        self, fn, stmt,
                        f"direct write to ledger field '{attr}' outside "
                        "the owning cluster mutators; the O(1) aggregates "
                        "and demand listeners desync — go through "
                        "apply/release/resize/expand_capacity",
                    )
