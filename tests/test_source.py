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
