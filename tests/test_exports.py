"""Every name a module exports resolves, so deletions leave no stale
``__all__`` entry behind."""

import importlib
import pkgutil

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
