"""Checks on the package source itself."""

import ast
import sys
from collections import Counter
from pathlib import Path

import hooklaw

SOURCES = sorted(Path(hooklaw.__file__).parent.glob("*.py"))


def _callers():
    # the code outside the package that calls it: the scripts and the
    # benchmark, tests aside
    root = Path(hooklaw.__file__).parents[2]
    return [
        path
        for path in sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
        if not path.name.startswith("test_") and path.name != "conftest.py"
    ]


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
    callers = _callers()
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


def test_defaulted_parameters_take_other_values():
    # every parameter with a default, of a public function or method of the
    # package, is passed, by keyword or by position, at some call in the
    # package, the scripts or the benchmark (tests aside), unless the
    # function is exported in __all__: a default no caller overrides is a
    # constant
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES + _callers()}
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def called_name(call):
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    def passes(call, name, index):
        # a parameter at position index, or keyword-only at index None, is
        # passed by name, by **kwargs, by *args or by enough positions
        if any(kw.arg in (name, None) for kw in call.keywords):
            return True
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        return index is not None and (starred or len(call.args) > index)

    unused = []
    for path in SOURCES:
        tree = trees[path]
        funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        funcs += [
            node
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
        ]
        for func in funcs:
            if func.name.startswith("_") or func.name in hooklaw.__all__:
                continue
            positional = func.args.posonlyargs + func.args.args
            if positional and positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            defaulted = [
                (arg.arg, i) for i, arg in enumerate(positional) if i >= len(positional) - len(func.args.defaults)
            ]
            defaulted += [
                (arg.arg, None) for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults) if default
            ]
            for name, index in defaulted:
                if not any(passes(call, name, index) for call in calls if called_name(call) == func.name):
                    unused.append(f"{path.name}:{func.lineno} {func.name}({name}=...)")
    assert not unused, f"defaulted parameters that no caller passes: {unused}"
