"""The names the benchmark tracer rebinds must stay bound where it looks.

``benchmark/tracer.py`` swaps module globals and class attributes for timed
wrappers; a name that a refactor removes from its module would only show up
in the minutes-long benchmark self-tests.  This check loads the tracer's
table (without entering it) and looks each name up.  An import that ``src/``
keeps only for the tracer (marked ``noqa: F401`` with that reason) must name
an attribute the tracer rebinds in that module, so it goes when the reason does.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("semint_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


PATCHES = _patches()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in PATCHES],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in PATCHES],
)
def test_rebound_name_is_bound(owner, attr):
    assert attr in vars(owner)


KEPT_MARK = "# noqa: F401  (kept bound: the benchmark tracer rebinds it here)"
SRC = Path(__file__).resolve().parents[1] / "src" / "semint"
KEPT = [
    (path.stem, line.split(KEPT_MARK)[0].split()[-1].rstrip(","))
    for path in sorted(SRC.glob("*.py"))
    for line in path.read_text().splitlines()
    if KEPT_MARK in line
]


@pytest.mark.parametrize("module, name", KEPT, ids=[f"semint.{m}.{n}" for m, n in KEPT])
def test_kept_import_is_rebound(module, name):
    """An import kept only for the tracer must name a name the tracer rebinds there."""
    owner = importlib.import_module(f"semint.{module}")
    assert (owner, name) in {(o, attr) for o, attr, _ in PATCHES}
