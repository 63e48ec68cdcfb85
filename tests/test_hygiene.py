"""Source hygiene: no module imports a name it never uses, no function
takes a parameter it never reads, and every parameter default is overridden
by some call."""

import ast
from pathlib import Path

import pytest

import datalogmtl

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


def never_passed_parameters(defining: str, calling: list[str]) -> list[str]:
    """`function(parameter)` for each parameter of a function in `defining`
    that has a default and that no call in `calling` passes, by keyword or by
    position.  Calls match by the called name.  Skips `_`-prefixed
    parameters, dunder methods, and calls that pass *args or **kwargs."""
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
    out = []
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
            if not any(
                p in {k.arg for k in c.keywords}
                or (i is not None and len(c.args) + shift * isinstance(c.func, ast.Attribute) > i)
                for c in calls.get(node.name, [])
            ):
                out.append(f"{node.name}({p})")
    return sorted(out)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_passed_somewhere(path):
    calling = [p.read_text() for p in CALLERS]
    assert never_passed_parameters(path.read_text(), calling) == []
