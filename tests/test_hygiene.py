"""Source hygiene: every module-level import in the package is used, and
no function body imports anything.

A stdlib stand-in for a linter's unused-import rule.  A name counts as
used when it is read anywhere in its module or listed in ``__all__``.
Imports belong at the top of the module, where this check can see them.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "bandlayer"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _imported_names(tree):
    """Name bound by each top-level import, with its line number."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_package_found():
    assert "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_are_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{module}: unused import(s) {', '.join(unused)}"


def _function_body_imports(tree):
    """Line numbers of the imports inside any function body."""
    return sorted({node.lineno
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("module", MODULES)
def test_no_imports_in_function_bodies(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    lines = _function_body_imports(tree)
    assert not lines, f"{module}: import(s) in a function body at line(s) {lines}"
