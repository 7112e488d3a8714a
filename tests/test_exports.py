"""Every exported name resolves: each module's ``__all__``, and each name the
package ``__init__`` imports, so a retired name left in an export list fails
here rather than in a user's ``import *``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import multicurve

MODULES = sorted(m.name for m in pkgutil.iter_modules(multicurve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"multicurve.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(multicurve.__file__).read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) > 50
    for module, name in imported:
        assert hasattr(importlib.import_module(f"multicurve.{module}"), name), (module, name)
        assert hasattr(multicurve, name), name
