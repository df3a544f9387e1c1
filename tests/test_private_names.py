"""Every module-level private name of ``src/semint`` is used inside ``src/semint``.

A helper that only a test or the benchmark still calls is dead library code
kept alive from outside.  The check reads code tokens only (comments and
strings do not count), so a name that survives in a docstring alone fails too.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "semint").glob("*.py"))


def _private_definitions(source: str) -> list[str]:
    """The ``_name`` functions, classes and variables a module defines at its top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _name_tokens(source: str) -> Counter:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return Counter(tok.string for tok in tokens if tok.type == tokenize.NAME)


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every private top-level name whose only code token is its definition."""
    counts = sum((_name_tokens(text) for text in sources.values()), Counter())
    return [
        f"{module}.{name}"
        for module, text in sources.items()
        for name in _private_definitions(text)
        if counts[name] < 2
    ]


def test_sources_found():
    assert {"decoupler.py", "extphase.py", "constraint.py"} <= {path.name for path in SOURCES}


def test_every_private_name_is_used_in_src():
    assert _unused_private_names({path.stem: path.read_text() for path in SOURCES}) == []


@pytest.mark.parametrize(
    "sources, expected",
    [
        ({"a": "def _dead():\n    '''_dead in a docstring'''\n# _dead\n"}, ["a._dead"]),
        ({"a": "_TABLE = {}\ndef _used():\n    return _TABLE\n", "b": "from .a import _used\n"}, []),
        ({"a": "class _Box:\n    pass\n_x: int = 1\n"}, ["a._Box", "a._x"]),
    ],
    ids=["docstring-only", "used-across-modules", "class-and-annotated"],
)
def test_guard_bites(sources, expected):
    assert _unused_private_names(sources) == expected
