"""Source hygiene: no module imports a name it never uses, and no function
takes a parameter it never reads."""

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
