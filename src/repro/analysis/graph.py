"""Cross-module project model: imports, definitions, and the call graph.

:class:`Project` links the :class:`~repro.analysis.core.ParsedModule`
objects of one lint run into a whole-program view the deep rule
families (``DET1xx``/``RACE0xx``/``INV101``) query:

* module naming — ``repro/cluster/cluster.py`` -> ``repro.cluster.cluster``;
* import resolution — absolute and relative, including aliases, so a
  local name can be mapped to the fully-qualified thing it denotes;
* definition tables — module functions, classes, and methods, each a
  :class:`FunctionInfo`/:class:`ClassInfo` with its AST node;
* call and reference edges — direct calls, ``self.m()``/``cls.m()``
  dispatch, constructor calls, attribute calls through annotated
  parameters/attributes, plus *reference* edges for functions passed as
  values (``pool.submit(worker, ...)``, ``initializer=reset``);
* reachability — transitive closure over call+reference edges, used to
  find code running inside worker processes.

The model is deliberately conservative: anything it cannot resolve is
dropped (no edge) rather than guessed, so rules built on top err
towards silence, not false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from .core import ParsedModule

__all__ = ["ClassInfo", "FunctionInfo", "ModuleInfo", "Project", "module_name_for"]


def module_name_for(relpath: str) -> str:
    """Dotted module name for a package-relative path.

    ``repro/cluster/cluster.py`` -> ``repro.cluster.cluster`` and
    ``repro/cluster/__init__.py`` -> ``repro.cluster``.
    """
    name = relpath
    if name.endswith(".py"):
        name = name[:-3]
    name = name.replace("/", ".")
    if name.endswith(".__init__"):
        name = name[: -len(".__init__")]
    return name


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str  # e.g. ``repro.cluster.cluster.Cluster.apply``
    module: "ModuleInfo"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    cls: Optional[str] = None  # owning class name, if a method
    calls: Set[str] = field(default_factory=set)  # resolved callee qnames
    refs: Set[str] = field(default_factory=set)  # funcs referenced as values

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[1]


@dataclass
class ClassInfo:
    """One class definition with its methods and attribute types."""

    qname: str
    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    bases: List[str] = field(default_factory=list)  # dotted names, unresolved
    #: ``self.<attr>`` -> class qname, from annotations/constructor calls.
    attr_types: Dict[str, str] = field(default_factory=dict)


class ModuleInfo:
    """One module of the project: parse tree plus symbol tables."""

    def __init__(self, name: str, parsed: ParsedModule):
        self.name = name
        self.parsed = parsed
        #: local alias -> fully qualified name (module or imported object).
        self.imports: Dict[str, str] = {}
        #: function/method qname -> info (methods included, flattened).
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: all module-level assigned names.
        self.global_names: Set[str] = set()

    @property
    def relpath(self) -> str:
        return self.parsed.relpath

    def package(self) -> str:
        """The package this module lives in (itself, if ``__init__``)."""
        if self.parsed.relpath.endswith("__init__.py"):
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for nested Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Project:
    """The linked whole-program view over one lint run's modules."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}  # by dotted name
        self._by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}  # all qnames
        self.classes: Dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_modules(cls, parsed_modules: Sequence[ParsedModule]) -> "Project":
        project = cls()
        for parsed in parsed_modules:
            name = module_name_for(parsed.relpath)
            if name in project.modules:
                continue  # first occurrence wins (duplicate relpaths)
            info = ModuleInfo(name, parsed)
            project.modules[name] = info
            project._by_path[parsed.path] = info
        for info in project.modules.values():
            project._index_module(info)
        for info in project.modules.values():
            project._link_module(info)
        return project

    def _index_module(self, mod: ModuleInfo) -> None:
        """First pass: imports, definitions, module-level globals."""
        for stmt in mod.parsed.tree.body:
            self._index_statement(mod, stmt)

    def _index_statement(self, mod: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mod.imports[local] = target
        elif isinstance(stmt, ast.ImportFrom):
            base = self._import_from_base(mod, stmt)
            if base is None:
                return
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.imports[local] = f"{base}.{alias.name}" if base else alias.name
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{mod.name}.{stmt.name}"
            fn = FunctionInfo(qname, mod, stmt)
            mod.functions[qname] = fn
            self.functions[qname] = fn
        elif isinstance(stmt, ast.ClassDef):
            self._index_class(mod, stmt)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    mod.global_names.add(target.id)
        elif isinstance(stmt, (ast.If, ast.Try)):
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    self._index_statement(mod, inner)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{mod.name}.{node.name}"
        cls_info = ClassInfo(qname, mod, node)
        for base in node.bases:
            name = dotted(base)
            if name:
                cls_info.bases.append(name)
        mod.classes[node.name] = cls_info
        self.classes[qname] = cls_info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mq = f"{qname}.{stmt.name}"
                fn = FunctionInfo(mq, mod, stmt, cls=node.name)
                cls_info.methods[stmt.name] = fn
                mod.functions[mq] = fn
                self.functions[mq] = fn

    def _import_from_base(
        self, mod: ModuleInfo, stmt: ast.ImportFrom
    ) -> Optional[str]:
        if stmt.level == 0:
            return stmt.module or ""
        # Relative import: walk up from the containing package.
        pkg = mod.package()
        parts = pkg.split(".") if pkg else []
        up = stmt.level - 1
        if up > len(parts):
            return None
        base_parts = parts[: len(parts) - up] if up else parts
        if stmt.module:
            base_parts = base_parts + stmt.module.split(".")
        return ".".join(base_parts)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def resolve(self, mod: ModuleInfo, dotted_name: str) -> Optional[str]:
        """Fully qualify ``dotted_name`` as seen from ``mod``.

        Follows the module's import aliases (longest local prefix) and
        collapses through ``__init__`` re-exports one level.  Returns a
        dotted name that may or may not exist in the project.
        """
        parts = dotted_name.split(".")
        head, rest = parts[0], parts[1:]
        if head in mod.imports:
            qual = mod.imports[head]
        elif head in mod.classes:
            qual = f"{mod.name}.{head}"
        elif f"{mod.name}.{head}" in mod.functions:
            qual = f"{mod.name}.{head}"
        elif head in mod.global_names:
            return None  # a module-level value, not a def we can chase
        else:
            return None
        full = ".".join([qual] + rest)
        return self._canonicalize(full)

    def _canonicalize(self, qual: str) -> str:
        """Chase one level of package re-export (``pkg.X`` -> ``pkg.mod.X``)."""
        if (
            qual in self.functions
            or qual in self.classes
            or qual in self.modules
        ):
            return qual
        # ``from .cluster import Cluster`` in ``repro/cluster/__init__.py``
        # makes ``repro.cluster.Cluster`` an alias of
        # ``repro.cluster.cluster.Cluster``; follow the init's imports.
        head, _, tail = qual.rpartition(".")
        init = self.modules.get(head)
        if init is not None and tail in init.imports:
            target = init.imports[tail]
            if target != qual:
                return self._canonicalize(target)
        return qual

    def module_for_path(self, path: str) -> Optional[ParsedModule]:
        info = self._by_path.get(path)
        return info.parsed if info is not None else None

    def function(self, qname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qname)

    def lookup_method(self, cls_qname: str, method: str) -> Optional[FunctionInfo]:
        """Find ``method`` on the class or (resolved) base classes."""
        seen: Set[str] = set()
        stack = [cls_qname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls_info = self.classes.get(current)
            if cls_info is None:
                continue
            if method in cls_info.methods:
                return cls_info.methods[method]
            for base in cls_info.bases:
                resolved = self.resolve(cls_info.module, base)
                if resolved:
                    stack.append(resolved)
        return None

    # ------------------------------------------------------------------
    # Linking: call + reference edges
    # ------------------------------------------------------------------
    def _link_module(self, mod: ModuleInfo) -> None:
        for cls_info in mod.classes.values():
            self._collect_attr_types(mod, cls_info)
        for fn in mod.functions.values():
            self._link_function(mod, fn)

    def _collect_attr_types(self, mod: ModuleInfo, cls_info: ClassInfo) -> None:
        """Infer ``self.<attr>`` class types from annotations/constructors."""
        for stmt in cls_info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ann = dotted(stmt.annotation)
                if ann:
                    resolved = self.resolve(mod, ann)
                    if resolved and resolved in self.classes:
                        cls_info.attr_types[stmt.target.id] = resolved
        init = cls_info.methods.get("__init__")
        if init is None:
            return
        params: Dict[str, str] = {}
        args = init.node.args
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                ann = dotted(arg.annotation)
                if ann:
                    resolved = self.resolve(mod, ann)
                    if resolved and resolved in self.classes:
                        params[arg.arg] = resolved
        for node in ast.walk(init.node):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr = target.attr
                    if isinstance(node, ast.AnnAssign) and node.annotation is not None:
                        ann = dotted(node.annotation)
                        if ann:
                            resolved = self.resolve(mod, ann)
                            if resolved and resolved in self.classes:
                                cls_info.attr_types[attr] = resolved
                                continue
                    if isinstance(value, ast.Name) and value.id in params:
                        cls_info.attr_types.setdefault(attr, params[value.id])
                    elif isinstance(value, ast.Call):
                        name = dotted(value.func)
                        if name:
                            resolved = self.resolve(mod, name)
                            if resolved and resolved in self.classes:
                                cls_info.attr_types.setdefault(attr, resolved)

    def local_types(self, mod: ModuleInfo, fn: FunctionInfo) -> Dict[str, str]:
        """Map local names to class qnames (annotations + constructors)."""
        types: Dict[str, str] = {}
        node = fn.node
        args = node.args
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                ann = dotted(arg.annotation)
                if ann:
                    resolved = self.resolve(mod, ann)
                    if resolved and resolved in self.classes:
                        types[arg.arg] = resolved
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                name = dotted(sub.value.func)
                resolved = self.resolve(mod, name) if name else None
                if resolved and resolved in self.classes:
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            types[target.id] = resolved
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                ann = dotted(sub.annotation)
                if ann:
                    resolved = self.resolve(mod, ann)
                    if resolved and resolved in self.classes:
                        types[sub.target.id] = resolved
        return types

    def resolve_callable(
        self,
        mod: ModuleInfo,
        fn: FunctionInfo,
        expr: ast.AST,
        local_types: Dict[str, str],
    ) -> Optional[str]:
        """Qname of the function/method ``expr`` denotes, if resolvable."""
        if isinstance(expr, ast.Name):
            resolved = self.resolve(mod, expr.id)
            if resolved:
                if resolved in self.functions:
                    return resolved
                if resolved in self.classes:
                    ctor = self.lookup_method(resolved, "__init__")
                    return ctor.qname if ctor else resolved
            return None
        if isinstance(expr, ast.Attribute):
            # Arbitrary-depth dotted names first: ``pkg.sub.f()`` after
            # ``import pkg.sub`` walks the import alias like any other.
            name = dotted(expr)
            if name and not name.startswith(("self.", "cls.")):
                resolved = self.resolve(mod, name)
                if resolved and resolved in self.functions:
                    return resolved
                if resolved and resolved in self.classes:
                    ctor = self.lookup_method(resolved, "__init__")
                    return ctor.qname if ctor else resolved
            base = expr.value
            # self.m / cls.m inside a method body.
            if (
                isinstance(base, ast.Name)
                and base.id in ("self", "cls")
                and fn.cls is not None
            ):
                owner = f"{mod.name}.{fn.cls}"
                target = self.lookup_method(owner, expr.attr)
                if target:
                    return target.qname
                # self.attr.m() through a typed attribute.
                return None
            if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
                # self.attr.m() — resolve attr's class via attr_types.
                if base.value.id == "self" and fn.cls is not None:
                    cls_info = self.classes.get(f"{mod.name}.{fn.cls}")
                    if cls_info is not None:
                        attr_cls = cls_info.attr_types.get(base.attr)
                        if attr_cls:
                            target = self.lookup_method(attr_cls, expr.attr)
                            if target:
                                return target.qname
                return None
            if isinstance(base, ast.Name):
                # typed_local.m()
                if base.id in local_types:
                    target = self.lookup_method(local_types[base.id], expr.attr)
                    if target:
                        return target.qname
                # module.func()
                name = dotted(expr)
                if name:
                    resolved = self.resolve(mod, name)
                    if resolved and resolved in self.functions:
                        return resolved
                    if resolved and resolved in self.classes:
                        ctor = self.lookup_method(resolved, "__init__")
                        return ctor.qname if ctor else resolved
            return None
        return None

    def _link_function(self, mod: ModuleInfo, fn: FunctionInfo) -> None:
        local_types = self.local_types(mod, fn)
        body = fn.node.body if hasattr(fn.node, "body") else []
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    target = self.resolve_callable(
                        mod, fn, node.func, local_types
                    )
                    if target:
                        fn.calls.add(target)
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        ref = self.resolve_callable(
                            mod, fn, arg, local_types
                        )
                        if ref:
                            fn.refs.add(ref)
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    continue

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Transitive closure over call and reference edges."""
        seen: Set[str] = set()
        stack = [r for r in roots]
        while stack:
            qname = stack.pop()
            if qname in seen:
                continue
            seen.add(qname)
            fn = self.functions.get(qname)
            if fn is None:
                continue
            stack.extend(fn.calls - seen)
            stack.extend(fn.refs - seen)
        return seen

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]
