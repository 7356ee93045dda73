"""Source-level checks on every package module: each name it exports
resolves, so deletions leave no stale ``__all__`` entry behind, and no
invariant rests on an ``assert``, which ``python -O`` strips."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chancorr

MODULES = ["chancorr"] + [f"chancorr.{m.name}"
                          for m in pkgutil.iter_modules(chancorr.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve_and_star_import_works(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ lists undefined {missing}"
    exec(f"from {module_name} import *", {})


@pytest.mark.parametrize("module_name", MODULES)
def test_no_assert_statements(module_name):
    path = Path(importlib.import_module(module_name).__file__)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"
