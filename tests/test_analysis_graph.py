"""Unit tests for the cross-module import/call graph (repro.analysis.graph)."""

from repro.analysis.core import ParsedModule
from repro.analysis.graph import Project, module_name_for


def build_project(sources):
    modules = [
        ParsedModule(src, path=rel, relpath=rel) for rel, src in sources.items()
    ]
    return Project.from_modules(modules)


def test_module_name_for():
    assert module_name_for("repro/cluster/cluster.py") == "repro.cluster.cluster"
    assert module_name_for("repro/__init__.py") == "repro"
    assert module_name_for("a/b/__init__.py") == "a.b"
    assert module_name_for("single.py") == "single"


def test_absolute_import_call_edge():
    project = build_project(
        {
            "pkg/a.py": "def f():\n    return 1\n",
            "pkg/b.py": "from pkg.a import f\n\ndef g():\n    return f()\n",
        }
    )
    g = project.function("pkg.b.g")
    assert g is not None
    assert "pkg.a.f" in g.calls


def test_relative_import_call_edge():
    project = build_project(
        {
            "pkg/__init__.py": "",
            "pkg/a.py": "def f():\n    return 1\n",
            "pkg/b.py": "from .a import f\n\ndef g():\n    return f()\n",
        }
    )
    g = project.function("pkg.b.g")
    assert "pkg.a.f" in g.calls


def test_reexport_through_init_is_canonicalized():
    project = build_project(
        {
            "pkg/__init__.py": "from .a import f\n",
            "pkg/a.py": "def f():\n    return 1\n",
            "pkg/b.py": "from pkg import f\n\ndef g():\n    return f()\n",
        }
    )
    g = project.function("pkg.b.g")
    assert "pkg.a.f" in g.calls


def test_module_attribute_call():
    project = build_project(
        {
            "pkg/a.py": "def f():\n    return 1\n",
            "pkg/b.py": "import pkg.a\n\ndef g():\n    return pkg.a.f()\n",
        }
    )
    g = project.function("pkg.b.g")
    assert "pkg.a.f" in g.calls


def test_method_call_through_self():
    project = build_project(
        {
            "pkg/c.py": (
                "class C:\n"
                "    def helper(self):\n"
                "        return 1\n"
                "    def top(self):\n"
                "        return self.helper()\n"
            ),
        }
    )
    top = project.function("pkg.c.C.top")
    assert "pkg.c.C.helper" in top.calls


def test_method_call_through_annotated_attribute():
    project = build_project(
        {
            "pkg/c.py": (
                "class Inner:\n"
                "    def run(self):\n"
                "        return 1\n"
                "\n"
                "class Outer:\n"
                "    inner: Inner\n"
                "    def go(self):\n"
                "        return self.inner.run()\n"
            ),
        }
    )
    go = project.function("pkg.c.Outer.go")
    assert "pkg.c.Inner.run" in go.calls


def test_constructor_resolves_to_init():
    project = build_project(
        {
            "pkg/c.py": (
                "class C:\n"
                "    def __init__(self):\n"
                "        self.x = 1\n"
                "\n"
                "def make():\n"
                "    return C()\n"
            ),
        }
    )
    make = project.function("pkg.c.make")
    assert "pkg.c.C.__init__" in make.calls


def test_reference_edges_for_callables_passed_as_arguments():
    project = build_project(
        {
            "pkg/w.py": "def worker(x):\n    return x\n",
            "pkg/d.py": (
                "from pkg.w import worker\n"
                "\n"
                "def dispatch(pool, items):\n"
                "    return pool.map(worker, items)\n"
            ),
        }
    )
    dispatch = project.function("pkg.d.dispatch")
    assert "pkg.w.worker" in dispatch.refs


def test_reachable_transitive_closure_and_refs():
    project = build_project(
        {
            "pkg/a.py": (
                "def leaf():\n"
                "    return 1\n"
                "\n"
                "def mid():\n"
                "    return leaf()\n"
            ),
            "pkg/b.py": (
                "from pkg.a import mid\n"
                "\n"
                "def cb(x):\n"
                "    return x\n"
                "\n"
                "def root(runner):\n"
                "    runner(cb)\n"
                "    return mid()\n"
            ),
        }
    )
    names = project.reachable(["pkg.b.root"])
    assert {"pkg.b.root", "pkg.a.mid", "pkg.a.leaf", "pkg.b.cb"} <= names


def test_lookup_method_walks_bases():
    project = build_project(
        {
            "pkg/c.py": (
                "class Base:\n"
                "    def shared(self):\n"
                "        return 1\n"
                "\n"
                "class Child(Base):\n"
                "    pass\n"
            ),
        }
    )
    fn = project.lookup_method("pkg.c.Child", "shared")
    assert fn is not None and fn.qname == "pkg.c.Base.shared"
