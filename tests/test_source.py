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
