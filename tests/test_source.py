"""Checks on the package's source text itself."""

import ast
from pathlib import Path

import spikeflow

SOURCES = sorted(Path(spikeflow.__file__).resolve().parent.glob("*.py"))


def self_calls(tree: ast.AST) -> list[str]:
    """``name:line`` for every call a function makes to itself by name, as
    ``f(...)``, or as ``self.f(...)``/``cls.f(...)`` from a method."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if (isinstance(callee, ast.Name) and callee.id == func.name) or (
                isinstance(callee, ast.Attribute)
                and callee.attr == func.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                found.append(f"{func.name}:{node.lineno}")
    return found


def test_self_calls_finds_direct_and_method_recursion():
    source = "def f(n):\n    return f(n - 1)\n\nclass C:\n    def g(self):\n        return self.g()\n"
    assert self_calls(ast.parse(source)) == ["f:2", "g:6"]


def test_no_function_in_the_package_recurses():
    """Deep inputs must not reach the interpreter's recursion limit: every
    search in the package is a loop with its own stack."""
    assert len(SOURCES) > 5
    found = {path.name: self_calls(ast.parse(path.read_text())) for path in SOURCES}
    assert {name: calls for name, calls in found.items() if calls} == {}


def imported_modules(tree: ast.AST) -> set[str]:
    """The top-level name of every module an ``import`` or ``from`` imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_reads_import_and_from_forms():
    source = "import os.path, sys\nfrom fractions import Fraction\nfrom .errors import ParseError\n"
    assert imported_modules(ast.parse(source)) == {"os", "sys", "fractions"}


def test_no_module_in_the_package_imports_fractions():
    """The simulator is integer-only: every leak is 0 or 1, so no potential
    is ever a ``Fraction``."""
    found = [path.name for path in SOURCES if "fractions" in imported_modules(ast.parse(path.read_text()))]
    assert found == []
