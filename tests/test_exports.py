"""Every name a ``semint`` module lists in ``__all__`` is bound there, and
every name the package ``__init__`` re-exports is a public name of its module.

A deleted function whose ``__all__`` entry stays only fails on
``from semint.x import *``; this check looks each name up instead.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import semint

MODULES = sorted(info.name for info in pkgutil.iter_modules(semint.__path__) if info.name != "__main__")


def _reexports():
    tree = ast.parse(Path(semint.__file__).read_text())
    return [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"semint.{name}")
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(module, n)] == []


REEXPORTS = _reexports()


@pytest.mark.parametrize("source, name, bound", REEXPORTS, ids=[f"{m}.{n}" for m, n, _ in REEXPORTS])
def test_reexport_is_public(source, name, bound):
    module = importlib.import_module(f"semint.{source}")
    assert name in getattr(module, "__all__", [name])
    assert getattr(semint, bound) is getattr(module, name)
