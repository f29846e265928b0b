"""The library's imports: the standard library and numpy only (see README),
and no imported name left unused."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "batts")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _parse(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), name)


def _imports(tree):
    """The absolute import statements of a module."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or (isinstance(node, ast.ImportFrom) and node.level == 0)]


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_the_standard_library_and_numpy(name):
    for node in _imports(_parse(name)):
        if isinstance(node, ast.Import):
            tops = [alias.name.split(".")[0] for alias in node.names]
        else:
            tops = [node.module.split(".")[0]]
        for top in tops:
            assert top in sys.stdlib_module_names or top == "numpy", \
                f"{name}:{node.lineno} imports {top}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_every_imported_name_is_used(name):
    tree = _parse(name)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{n} (line {line})" for n, line in bound.items() if n not in used)
    assert not unused, f"{name} imports unused names: {', '.join(unused)}"


def test_every_private_definition_is_used():
    """A private (_name) function, method or class that nothing else in the
    library refers to is dead code, or a helper that only tests call, which
    belongs in tests/. A reference inside the definition itself, such as a
    recursive call, does not count."""
    trees = [_parse(name) for name in MODULES]
    refs = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(name, str):
                refs.setdefault(name, []).append(node)
    unused = []
    for module, tree in zip(MODULES, trees):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                inside = {id(n) for n in ast.walk(node)}
                if all(id(ref) in inside for ref in refs.get(node.name, [])):
                    unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, f"private definitions nothing refers to: {', '.join(unused)}"
