"""The package runs on the standard library and numpy alone."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import trustcf

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "trustcf"}


def imported_packages(tree: ast.AST) -> set[str]:
    """Top-level names of the packages a module imports, relative imports aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_modules_import_only_the_standard_library_and_numpy():
    modules = sorted(Path(trustcf.__file__).parent.rglob("*.py"))
    assert len(modules) > 5
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        assert imported_packages(tree) <= ALLOWED, (path.name, imported_packages(tree) - ALLOWED)

