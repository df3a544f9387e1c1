"""Exception types shared across the package.

Every class derives from ``SemintError`` (``semint.cli.main`` prints any of
them as its one ``error:`` line), a failed midpoint solve from ``SolveError``,
and each keeps its builtin base, ``ValueError`` or ``RuntimeError``.
"""

from __future__ import annotations

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
