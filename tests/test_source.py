"""Checks on the package source itself."""

import ast
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
