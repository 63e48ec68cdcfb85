"""Source hygiene: no module imports a name it never uses, no function
takes a parameter it never reads, every parameter default is overridden by
some call but not by every call, every record field is read, and the CLI
imports nothing outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import datalogmtl

from helpers import block_buffered_env

MODULES = sorted(
    p for p in Path(datalogmtl.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_imports():
    assert unused_imports("from os import path, sep\nimport re\nprint(sep)\n") == ["path", "re"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unused_parameters(source: str) -> list[str]:
    """`function(parameter)` for each parameter its body never names, except
    self/cls, `_`-prefixed names and the parameters of dunder methods."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        named = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [
            f"{node.name}({p})"
            for p in params
            if p not in named and p not in ("self", "cls") and not p.startswith("_")
        ]
    return sorted(out)


def test_scan_finds_unused_parameters():
    source = (
        "def f(a, b, _c, *args, d, **kw):\n"
        "    def g(self, e):\n"
        "        return a\n"
        "    return kw\n"
        "class K:\n"
        "    def __init__(self, x):\n"
        "        pass\n"
        "    def m(self, y, cls):\n"
        "        return y\n"
    )
    assert unused_parameters(source) == ["f(args)", "f(b)", "f(d)", "g(e)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


# every file whose calls count: the package, its tests and the benchmark
TESTS = Path(__file__).parent
CALLERS = sorted({*MODULES, *TESTS.glob("*.py"), *(TESTS.parent / "benchmark").glob("*.py")})


def _default_passes(defining: str, calling: list[str]):
    """`function(parameter)` for each parameter of a function in `defining`
    that has a default, with one flag per call in `calling` of that function:
    does the call pass it, by keyword or by position?  Calls match by the
    called name.  Skips `_`-prefixed parameters, dunder methods, and calls
    that pass *args or **kwargs."""
    calls: dict[str, list[ast.Call]] = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args):
                continue
            if any(k.arg is None for k in node.keywords):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(name, []).append(node)
    tree = ast.parse(defining)
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        # a call through an attribute binds a method's self/cls itself
        shift = int(id(node) in methods and bool(positional) and positional[0].arg in ("self", "cls"))
        first_default = len(positional) - len(a.defaults)
        defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first_default]
        defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        for p, i in defaulted:
            if p.startswith("_"):
                continue
            yield f"{node.name}({p})", [
                p in {k.arg for k in c.keywords}
                or (i is not None and len(c.args) + shift * isinstance(c.func, ast.Attribute) > i)
                for c in calls.get(node.name, [])
            ]


def never_passed_parameters(defining: str, calling: list[str]) -> list[str]:
    """`function(parameter)` for each defaulted parameter that no call
    passes (see `_default_passes`)."""
    return sorted(name for name, passes in _default_passes(defining, calling) if not any(passes))


def always_passed_parameters(defining: str, calling: list[str]) -> list[str]:
    """`function(parameter)` for each defaulted parameter that every call,
    and at least one, passes (see `_default_passes`): its default is dead."""
    return sorted(
        name for name, passes in _default_passes(defining, calling) if passes and all(passes)
    )


def test_scan_finds_never_passed_parameters():
    defining = (
        "def f(a, b=1, c=2, *, d=3, e=4, _g=5):\n"
        "    pass\n"
        "class K:\n"
        "    def m(self, x=1, y=2):\n"
        "        pass\n"
        "    def __init__(self, z=1):\n"
        "        pass\n"
    )
    calling = ["f(0, 5, e=1)\nK().m(1)\nf(*xs, d=1)\nf(**kw)\n"]
    assert never_passed_parameters(defining, calling) == ["f(c)", "f(d)", "m(y)"]


def test_scan_finds_always_passed_parameters():
    defining = (
        "def f(a, b=1, c=2, *, d=3, e=4, _g=5):\n"
        "    pass\n"
        "class K:\n"
        "    def m(self, x=1, y=2):\n"
        "        pass\n"
        "def uncalled(u=1):\n"
        "    pass\n"
    )
    calling = ["f(0, 5, e=1, _g=0)\nf(1, b=2, e=3)\nK().m(1)\nK().m(x=2, y=3)\nf(*xs)\n"]
    assert always_passed_parameters(defining, calling) == ["f(b)", "f(e)", "m(x)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_passed_somewhere(path):
    calling = [p.read_text() for p in CALLERS]
    assert never_passed_parameters(path.read_text(), calling) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_default_is_passed_everywhere(path):
    calling = [p.read_text() for p in CALLERS]
    assert always_passed_parameters(path.read_text(), calling) == []


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """`module.qualname` for each function, method or class defined in
    `sources` (module name -> source) that no source names, as a bare name,
    an attribute or an import, outside the definition itself.  Skips dunder
    methods, which the interpreter calls without naming them."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def names(node) -> list[str]:
        out = []
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.append(n.id)
            elif isinstance(n, ast.Attribute):
                out.append(n.attr)
            elif isinstance(n, ast.alias):
                out.append(n.name)
        return out

    everywhere: dict[str, int] = {}
    for tree in trees.values():
        for name in names(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    out = []

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = child.name.startswith("__") and child.name.endswith("__")
                own = names(child).count(child.name)
                if not dunder and everywhere.get(child.name, 0) == own:
                    out.append(f"{module}.{prefix}{child.name}")
                visit(module, child, f"{prefix}{child.name}.")
            else:
                visit(module, child, prefix)

    for module, tree in trees.items():
        visit(module, tree, "")
    return sorted(out)


def test_scan_finds_unnamed_definitions():
    sources = {
        "a": (
            "def used(): pass\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class K:\n"
            "    def __str__(self): return ''\n"
            "    def m(self): return K\n"
            "    def shown(self): pass\n"
            "def outer():\n"
            "    def inner(): pass\n"
            "    return inner\n"
        ),
        "b": "from a import used\nx.shown()\n",
    }
    assert unnamed_definitions(sources) == ["a.K", "a.K.m", "a.outer", "a.recursive"]


# Definitions that only tests or the benchmark name, kept because
# tests/test_acceptance.py, the tests' reference loops or benchmark/spans.py
# use them.  The reference oracle, dense_grid.py, is skipped as a whole.
TEST_ONLY = {
    "intervals.contains_point": "pointwise membership, the reference for interval operations",
    "store.FactStore.check_invariants": "checks that a materialised store is sorted and coalesced",
    "store.FactStore.equals": "the reference loops' fixpoint test; benchmark/spans.py times it",
    "bench.census": "criterion 7's T1..T5 histogram",
}


def test_every_definition_is_named_in_the_package():
    # __init__.py counts: the names it re-exports are the package's interface
    sources = {p.stem: p.read_text() for p in Path(datalogmtl.__file__).parent.glob("*.py")}
    flagged = [
        name
        for name in unnamed_definitions(sources)
        if not name.startswith("dense_grid.") and name not in TEST_ONLY
    ]
    assert flagged == []


def test_every_top_level_definition_is_named_outside_itself():
    # a module-level function or class that neither the package, its tests
    # nor the benchmark names is dead code, the oracle and test-only helpers
    # included
    package = {p.stem: p.read_text() for p in Path(datalogmtl.__file__).parent.glob("*.py")}
    callers = {
        str(p.relative_to(TESTS.parent)): p.read_text() for p in CALLERS if p not in MODULES
    }
    flagged = unnamed_definitions({**package, **callers})
    assert [name for name in flagged if name.count(".") == 1 and name.split(".")[0] in package] == []


def _record_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a record class: the annotated names of a dataclass, a
    NamedTuple class or a class that declares `__slots__`, and the names in
    its `__slots__`.  [] for any other class."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    dataclass = any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
    named_tuple = any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)
    slots = [
        name.value
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets)
        for name in getattr(stmt.value, "elts", [])
    ]
    if not (dataclass or named_tuple or slots):
        return []
    annotated = [
        stmt.target.id
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    return list(dict.fromkeys(annotated + slots))


def unread_fields(defining: dict[str, str], reading: list[str]) -> list[str]:
    """`module.Class.field` for each field of a record class in `defining`
    (module name -> source) that no source in `reading` reads as an
    attribute.  Records are dataclasses, NamedTuple classes and classes
    with `__slots__` (see `_record_fields`)."""
    read = {
        n.attr
        for source in reading
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    out = []
    for module, source in defining.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                out += [f"{module}.{node.name}.{f}" for f in _record_fields(node) if f not in read]
    return sorted(out)


def test_scan_finds_unread_fields():
    defining = {
        "a": (
            "@dataclass(frozen=True)\n"
            "class D:\n"
            "    shown: int\n"
            "    written: int\n"
            "    hidden: int = 0\n"
            "class Plain:\n"
            "    unread: int\n"
            "class T(NamedTuple):\n"
            "    shown: int\n"
            "    tuple_hidden: int\n"
            "class S:\n"
            "    __slots__ = ('shown', 'slot_hidden')\n"
            "    annotated_hidden: int\n"
        )
    }
    reading = ["print(d.shown)\nd.written = 1\n"]
    assert unread_fields(defining, reading) == [
        "a.D.hidden",
        "a.D.written",
        "a.S.annotated_hidden",
        "a.S.slot_hidden",
        "a.T.tuple_hidden",
    ]


def test_every_dataclass_field_is_read():
    # dataclasses, NamedTuple classes and __slots__ records alike
    defining = {p.stem: p.read_text() for p in MODULES}
    assert unread_fields(defining, [p.read_text() for p in CALLERS]) == []


def test_importing_the_cli_loads_only_the_standard_library():
    # `site` may already have loaded third-party modules, so only what the
    # import itself adds counts; the race runs in one process, so neither
    # multiprocessing nor pickle comes back with it
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import datalogmtl.cli\n"
        "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'datalogmtl'}))\n"
        "print(sorted(added & {'multiprocessing', 'pickle', '_pickle'}))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=block_buffered_env(), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["[]", "[]", ""]
