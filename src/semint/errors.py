"""Exception types shared across the package.

Every class derives from ``SemintError`` (``semint.cli.main`` prints any of
them as its one ``error:`` line), a failed midpoint solve from ``SolveError``,
and each keeps its builtin base, ``ValueError`` or ``RuntimeError``.

The argument kinds at the end parse every public argument and CLI config value:
each returns the parsed value or raises "{name} must be {phrase}, got {value!r}".
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class SemintError(Exception):
    """Base of every error the package raises on purpose."""


class SolveError(SemintError, RuntimeError):
    """A midpoint solve failed: Newton did not converge or its Jacobian was singular."""


class DimensionError(SemintError, ValueError):
    """Vector or matrix does not have the extended-phase-space shape."""


class ParameterError(SemintError, ValueError):
    """A tolerance, radius, count or similar argument is out of range."""


class EvaluationError(SemintError, RuntimeError):
    """A model returned a non-finite value. Carries the offending point."""

    def __init__(self, message: str, z=None):
        super().__init__(message)
        self.z = None if z is None else np.asarray(z, dtype=float)


class NonconvergenceError(SolveError):
    """Newton iteration exhausted max_iter. Carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = float(residual)
        self.iterations = int(iterations)


class LinearSolveError(SolveError):
    """The midpoint Jacobian was singular; usually |lambda| is too large."""


class UnsupportedRegionError(SemintError, RuntimeError):
    """Operation requires a non-degenerate region classification."""


class StepNonexistenceError(SemintError, RuntimeError):
    """No multiplier of the required sign exists within the search radius.

    Carries the root prediction so callers can report which
    existence/uniqueness case ruled the step out.
    """

    def __init__(self, message: str, prediction=None):
        super().__init__(message)
        self.prediction = prediction


class PreconditionError(SemintError, ValueError):
    """Input sequence violates a documented precondition."""


def _refused(name: str, phrase: str, value) -> ParameterError:
    return ParameterError(f"{name} must be {phrase}, got {value!r}")


# Each kind is called as kind(value, name, *args): it returns the parsed value or raises.
# The number kinds are the open interval (low, high) a number must lie in, with its phrase.
# A NaN fails every comparison, so each asks for a non-NaN number, and no float lies
# between -0.0 and the largest float below it, so _NONNEGATIVE admits -0.0 but no less.
_FINITE = (-math.inf, math.inf, "finite")
_POSITIVE = (0.0, math.inf, "finite and positive")
_NONNEGATIVE = (math.nextafter(-0.0, -1.0), math.inf, "finite and nonnegative")
_UNIT = (0.0, 1.0, "a number in (0, 1)")


def _real(value, name: str, kind: tuple = _FINITE) -> float:
    """A real number of ``kind`` as a float; a bool, a str or an array is refused.
    A float in range costs one type test and one chained compare (the kernel path)."""
    if type(value) is float and kind[0] < value < kind[1]:
        return value
    low, high, phrase = kind
    if type(value) is not bool and isinstance(value, numbers.Real):
        try:
            if low < float(value) < high:
                return float(value)
        except OverflowError:  # an int past the float range
            pass
    raise _refused(name, phrase, value)


def _whole(value, name: str, low: int = 0) -> int:
    """A whole number >= low as an int, of any integer type but bool; the exact
    ``int`` skips the ``numbers.Integral`` test (0.04 us against 0.5 us)."""
    integer = type(value) is int or type(value) is not bool and isinstance(value, numbers.Integral)
    if integer and value >= low:
        return int(value)
    raise _refused(name, f"a whole number >= {low}", value)


def _flag(value, name: str) -> bool:
    """True or False (numpy's too); a truthy number or string is refused."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise _refused(name, "True or False", value)


def _one_of(value, name: str, names: tuple[str, ...]) -> str:
    """One of a few names, spelt exactly."""
    if type(value) is str and value in names:
        return value
    raise _refused(name, f"{', '.join(names[:-1])} or {names[-1]}", value)


def _vector(value, name: str) -> np.ndarray:
    """A number or a flat sequence of numbers as a 1-D float array, every entry
    finite; a bool, in a list too, is refused."""
    items = value if isinstance(value, (list, tuple)) else [value]
    if not any(type(v) is bool for v in items):
        try:
            arr = np.atleast_1d(np.asarray(value))
        except ValueError:  # a ragged list
            arr = np.array([None])
        if arr.ndim == 1 and arr.dtype.kind in "iuf" and np.isfinite(arr).all():
            return arr.astype(float, copy=False)
    raise _refused(name, "a finite number or a flat list of them", value)


def _instance(value, name: str, cls: type):
    """An instance of ``cls``."""
    if type(value) is cls or isinstance(value, cls):
        return value
    raise _refused(name, f"{'an' if cls.__name__[0] in 'AEIOU' else 'a'} {cls.__name__}", value)


def _optional(value, name: str, kind, *args):
    """None, or a value of ``kind``."""
    return None if value is None else kind(value, name, *args)


def _from_json(value, name: str, kind, *args):
    """A JSON value parsed by ``kind``.  Every kind refuses a bool (JSON true is no
    1) and a str (no "2.5"); JSON has one number type, so a whole float such as
    81.0 stands for that whole number, up to 2**53, past which floats are no
    longer one apart (1e308 names no count)."""
    if kind is _whole and type(value) is float and value.is_integer() and abs(value) <= 2.0**53:
        value = int(value)
    return kind(value, name, *args)


def _parse_fields(record, kinds: dict) -> None:
    """Parse the fields of a frozen dataclass in place: ``kinds`` maps a field
    name to its kind and the kind's arguments, ``(kind, *args)``."""
    for name, (kind, *args) in kinds.items():
        object.__setattr__(record, name, kind(getattr(record, name), name, *args))
