"""Every exported name resolves: each module's ``__all__``, and each name the
package ``__init__`` imports, so a retired name left in an export list fails
here rather than in a user's ``import *``; and no module but ``_checks`` states
the rule that arguments be finite."""

import ast
import importlib
import pkgutil
import re
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


RULE_MESSAGE = re.compile(r"must be (?:finite|positive and finite|finite and nonnegative)\b")


def test_only_the_checks_module_states_the_finiteness_rule():
    # a raise whose message ends a "must be ..." clause with the rule that
    # _checks.checked owns would be a private copy of that rule
    copies = []
    for path in sorted(Path(multicurve.__file__).parent.glob("*.py")):
        if path.name == "_checks.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                text = "".join(part.value for part in ast.walk(node.exc)
                               if isinstance(part, ast.Constant) and isinstance(part.value, str))
                if RULE_MESSAGE.search(text):
                    copies.append(f"{path.name}:{node.lineno}")
    assert copies == []
