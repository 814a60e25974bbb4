"""The package's public surface is consistent.

Every ``__all__`` entry of every ``korobov`` module names an attribute of
that module, and every name ``korobov/__init__.py`` imports from a module
that declares ``__all__`` is listed there, so a deleted or renamed
function cannot leave a stale entry behind.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import korobov

MODULES = sorted(info.name for info in pkgutil.iter_modules(korobov.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"korobov.{name}")
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert not missing


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(korobov.__file__).read_text())
    unlisted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"korobov.{node.module}")
            listed = getattr(module, "__all__", None)
            if listed is not None:
                unlisted += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    assert not unlisted
