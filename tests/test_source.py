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


def unread_parameters(tree: ast.AST) -> list[str]:
    """``name(param)`` for every parameter a function or lambda never reads:
    no load of its name in the body, nested functions included, and no
    augmented assignment to it.  A method's ``self`` or ``cls`` is exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        params = [p.arg for p in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg) if p]
        body = [func.body] if isinstance(func, ast.Lambda) else func.body
        read = set()
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        name = getattr(func, "name", "<lambda>")
        found += [f"{name}({p})" for p in params if p not in read and p not in ("self", "cls")]
    return found


def unreferenced_private_functions(trees: dict[str, ast.AST]) -> list[str]:
    """``file:name`` for every private module-level function (``_name``, not
    dunder) that no module of ``trees`` names, as a name, an attribute or an
    import."""
    defined = {}
    used = set()
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_"):
                if not node.name.startswith("__"):
                    defined[node.name] = file
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{file}:{name}" for name, file in defined.items() if name not in used)


def unused_code(trees: dict[str, ast.AST]) -> list[str]:
    """Both checks over ``trees`` (file name -> module): ``file:name(param)``
    for each unread parameter, then ``file:name`` for each unreferenced
    private function."""
    unread = [f"{file}:{found}" for file, tree in trees.items() for found in unread_parameters(tree)]
    return unread + unreferenced_private_functions(trees)


def test_unused_code_finds_unread_parameters_and_unreferenced_private_functions():
    planted = {
        "a.py": (
            "def f(x, y, *args, z, **kw):\n    return x + kw\n\n"
            "def _g():\n    pass\n\n"
            "def _h(acc):\n    acc += 1\n\n"
            "def _k(v):\n    def inner():\n        return v\n    return inner\n\n"
            "class C:\n    def m(self, v):\n        return lambda w: v\n"
        ),
        "b.py": "from a import _h\nimport a\n\na._k(1)\n",
    }
    trees = {file: ast.parse(text) for file, text in planted.items()}
    assert unused_code(trees) == [
        "a.py:f(y)", "a.py:f(args)", "a.py:f(z)", "a.py:<lambda>(w)", "a.py:_g",
    ]


def test_every_parameter_is_read_and_every_private_function_is_referenced():
    """A parameter nothing reads, or a private helper nothing calls, is code
    that only looks used."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert unused_code(trees) == []
