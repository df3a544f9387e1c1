"""The names the benchmark tracer rebinds must stay bound where it looks.

``benchmark/tracer.py`` swaps module globals and class attributes for timed
wrappers; a name that a refactor removes from its module would only show up
in the minutes-long benchmark self-tests.  This check loads the tracer's
table (without entering it) and looks each name up.
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
