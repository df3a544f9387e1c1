"""One error family: every class in ``semint.errors`` is a ``SemintError``
and still an instance of the builtin base it had before the family, so an
``except ValueError`` or ``except RuntimeError`` catches what it caught."""

import inspect

import pytest

from semint import errors

CLASSES = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass) if cls.__module__ == errors.__name__),
    key=lambda cls: cls.__name__,
)

BUILTIN_BASE = {
    "SemintError": Exception,
    "SolveError": RuntimeError,
    "DimensionError": ValueError,
    "ParameterError": ValueError,
    "PreconditionError": ValueError,
    "EvaluationError": RuntimeError,
    "NonconvergenceError": RuntimeError,
    "LinearSolveError": RuntimeError,
    "UnsupportedRegionError": RuntimeError,
    "StepNonexistenceError": RuntimeError,
}


def test_every_class_is_listed():
    assert sorted(cls.__name__ for cls in CLASSES) == sorted(BUILTIN_BASE)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_semint_error_with_its_builtin_base(cls):
    assert issubclass(cls, errors.SemintError)
    assert issubclass(cls, BUILTIN_BASE[cls.__name__])


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if c not in (errors.SemintError, errors.SolveError)],
    ids=lambda cls: cls.__name__,
)
def test_only_failed_solves_are_solve_errors(cls):
    assert issubclass(cls, errors.SolveError) == (
        cls in (errors.NonconvergenceError, errors.LinearSolveError)
    )
