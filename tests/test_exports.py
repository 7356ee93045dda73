"""Source-level checks on every package module: each name it exports
resolves, so deletions leave no stale ``__all__`` entry behind, no
invariant rests on an ``assert``, which ``python -O`` strips, and only
``config`` imports ``numbers``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import chancorr

MODULES = ["chancorr"] + [f"chancorr.{m.name}"
                          for m in pkgutil.iter_modules(chancorr.__path__)]
# every source file under the package, by module name, found on disk: the
# scans below also reach a file that nothing imports
PACKAGE = Path(chancorr.__file__).parent
SOURCES = {".".join(("chancorr",) + path.relative_to(PACKAGE).with_suffix("").parts)
           .removesuffix(".__init__"): path for path in sorted(PACKAGE.rglob("*.py"))}


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve_and_star_import_works(module_name):
    module = importlib.import_module(module_name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ lists undefined {missing}"
    exec(f"from {module_name} import *", {})


def _tree(module_name):
    path = SOURCES[module_name]
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("module_name", SOURCES)
def test_no_assert_statements(module_name):
    # an invariant checked by assert vanishes under python -O
    lines = [node.lineno for node in ast.walk(_tree(module_name))
             if isinstance(node, ast.Assert)]
    assert not lines, f"{module_name} uses assert on lines {lines}"


@pytest.mark.parametrize("module_name", SOURCES)
def test_only_config_imports_numbers(module_name):
    # what counts as an integer or a number is decided in config.py alone
    nodes = list(ast.walk(_tree(module_name)))
    imported = {alias.name for node in nodes if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    assert module_name == "chancorr.config" or "numbers" not in imported
