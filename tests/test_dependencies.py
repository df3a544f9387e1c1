"""The core keeps numpy as its only dependency: every module under
``src/semint`` imports only the standard library, numpy and ``semint`` itself.
"""

import ast
import sys
from pathlib import Path

import pytest

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "semint"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "semint").glob("*.py"))


def _foreign_imports(source: str) -> list[tuple[str, int]]:
    """(top-level package, line) of every absolute import outside ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], node.lineno))
    return [(name, line) for name, line in found if name not in ALLOWED]


def test_sources_found():
    assert {"extphase.py", "models.py", "cli.py"} <= {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_imports_only_stdlib_numpy_and_semint(path):
    assert _foreign_imports(path.read_text()) == []


def test_guard_bites():
    source = "import scipy.linalg\nfrom numpy import linalg\nfrom . import models\n" \
             "def f():\n    from hypothesis import given\n"
    assert _foreign_imports(source) == [("scipy", 1), ("hypothesis", 5)]
