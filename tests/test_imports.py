"""Static checks on the package's imports.

``pyproject.toml`` declares no runtime dependencies, so every module the
package imports must come from the standard library or the package itself,
and every imported name must be used where it is imported.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tropcluster"
MODULES = sorted(SRC.glob("*.py"))


def _imports(tree):
    """(module, bound name or None) for every import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = "tropcluster" if node.level else node.module
            for alias in node.names:
                bound = None if module == "__future__" else alias.asname or alias.name
                yield module, bound


def _used_names(tree):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names inside string annotations such as -> "SeedData"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_package(path):
    tree = ast.parse(path.read_text())
    foreign = {
        module for module, _ in _imports(tree)
        if module.split(".")[0] not in sys.stdlib_module_names | {"tropcluster"}
    }
    assert not foreign, f"{path.name} imports undeclared modules {sorted(foreign)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imported_names_are_used(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = {bound for _, bound in _imports(tree) if bound and bound not in used}
    assert not unused, f"{path.name} never uses {sorted(unused)}"
