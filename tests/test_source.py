"""Checks on the package source itself."""

import ast
import sys
from collections import Counter
from pathlib import Path

import hooklaw

SOURCES = sorted(Path(hooklaw.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must raise explicitly: `python -O` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert not found, f"assert statements in the package: {found}"


def test_no_private_names_across_modules():
    # a module's _private names are its own: no sibling reads them, either
    # as `module._name` or through `from .module import _name`
    siblings = {path.stem for path in SOURCES} - {"__init__"}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if private(alias.name)
                ]
    assert not found, f"private names used across modules: {found}"


def test_imports_are_stdlib_or_numpy():
    # the package runs on numpy alone: every import, inside functions too,
    # names the standard library, numpy or a module of the package
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"numpy"}
            ]
    assert not found, f"imports outside the standard library and numpy: {found}"


def test_public_names_have_callers():
    # every public top-level function and class of the package, and every
    # public method, is named outside its own definition somewhere in the
    # package, the scripts or the benchmark (tests aside), or is exported in
    # __all__; code that only tests call belongs in the tests
    root = Path(hooklaw.__file__).parents[2]
    callers = [
        path
        for path in sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + callers}

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name.rpartition(".")[2]

    used = Counter(name for tree in trees.values() for name in names(tree))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path in SOURCES:
        top = [node for node in trees[path].body if isinstance(node, defs)]
        methods = [
            node
            for cls in top
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, defs)
        ]
        for node in top + methods:
            if node.name.startswith("_") or node.name in hooklaw.__all__:
                continue
            if used[node.name] == Counter(names(node))[node.name]:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert len(callers) >= 2
    assert not unused, f"public names with no caller outside their definition: {unused}"
