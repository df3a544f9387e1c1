"""The decoupled constraint g(lambda, z_k) = H(z_bar(lambda, z_k)).

Multiplier existence questions reduce to roots of g in lambda.  Two tools
live here: the exact derivative dg/dlambda = H_z(z_bar)^T dz_bar/dlambda
(used for Newton polishing, never approximated), and the cubic model

    g(lambda) ~ H_k - psi_k lambda^2 / 8 - psi'_k lambda^3 / 24

whose defect is bounded by K |lambda|^4 for |lambda| <= lambda_delta.  The
model is reserved for prediction and bracketing.

``ConstraintCurve`` is the one kernel under every warm-started g and g'
evaluation: the DTH fast path in ``trajectory``, the bracketed searches of
``solve_roots``, ``choose_conjugate_momentum``, ``semint scan`` and
``semint verify``.  Each midpoint solve hands back the H_z(z_bar) its final
residual was judged with; the curve caches (lambda, z_bar, H_z(z_bar)), so
``derivative`` right after ``g`` at the same lambda, g' = H_z(z_bar)^T
dz_bar/dlambda, costs one ``midpoint_sensitivity`` call: one Hessian and one
linear solve (a 2x2 Cramer solve on floats for an n = 1 lift), not a second
midpoint solve or gradient.
``ConstraintCurve.newton`` is the one Newton iteration on g (the fast path,
the root searches of ``solve_roots`` and the conjugate-momentum refinement
all run it); it asks for g' only on iterations that take a step, so the
iteration that accepts a root pays no sensitivity solve.  Given a
sign-change bracket it first narrows it by safeguarded Newton, falling back
to bisection only for a step that would leave the bracket or converge
slower than bisection.  A caller that has H_z(z_k) already
(``step``, from its field sample) passes it as ``grad``.  Warm-start guesses
are formed element-wise on floats.  Every result is bit-identical to
``g_eval`` / ``g_derivative`` from the same start: the kernel drops only
the midpoint solve's argument checks on arrays it built itself.  H_z(z_k),
handed in or not, is checked by the one-state rule, ``extphase._checked``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import DerivedConstants
from .decoupler import (
    _midpoint_newton, midpoint_sensitivity, solve_midpoint_coords, solve_midpoints,
)
from .errors import _POSITIVE, _instance, _real
from .extphase import (
    ExtendedState, FieldSample, HamiltonianModel, _check_dim, _checked, _coords, _eval_stack,
    _value, apply_J as _apply_J_arr, eval_gradient, eval_value, sample_fields,
)

__all__ = ["CubicModel", "ConstraintCurve", "g_eval", "g_derivative", "cubic_model"]


@dataclass(frozen=True)
class CubicModel:
    """Cubic-in-lambda approximation of g at one base point.

    Calling the model evaluates H_k - psi_k l^2/8 - psi'_k l^3/24; the
    quartic_bound gives the rigorous defect envelope K l^4 valid for
    |l| <= lambda_delta.
    """

    H_k: float
    psi_k: float
    psi_prime_k: float
    K: float
    lambda_delta: float

    def __call__(self, lam: float) -> float:
        return (
            self.H_k
            - self.psi_k * lam * lam / 8.0
            - self.psi_prime_k * lam**3 / 24.0
        )

    def derivative(self, lam: float) -> float:
        return -self.psi_k * lam / 4.0 - self.psi_prime_k * lam * lam / 8.0

    def quartic_bound(self, lam: float) -> float:
        return self.K * lam**4

    @classmethod
    def from_fields(cls, fields: FieldSample, constants: DerivedConstants) -> "CubicModel":
        return cls(fields.H, fields.psi, fields.psi_prime, constants.K, constants.lambda_delta)


class ConstraintCurve:
    """g(., z_k) as a callable curve with warm-started midpoint solves.

    Root searches evaluate g at many nearby lambdas; reusing the previous
    midpoint as the Newton start cuts the inner iteration count roughly in
    half.  ``g_grid`` evaluates a whole grid in one batched solve instead.
    Instances are cheap and single-purpose; share models, not curves, across
    threads.
    """

    def __init__(
        self,
        model: HamiltonianModel,
        z_k: ExtendedState,
        tol: float = 1e-13,
        grad: Optional[np.ndarray] = None,
    ):
        """``grad`` is H_z(z_k) when the caller has already evaluated it (checked as the model's)."""
        self.model = model
        self.z = z = _coords(z_k)
        self.tol = _real(tol, "tol", _POSITIVE)
        _check_dim(model, z)
        grad = _checked(model, "gradient", z, model.gradient(z) if grad is None else grad, z.shape)
        self._half_jgrad = (0.5 * _apply_J_arr(grad)).tolist()
        # (lambda, z_bar, H_z(z_bar)) of the latest solve and of the one before
        self._prev: Optional[tuple[float, np.ndarray, np.ndarray]] = None
        self._last: Optional[tuple[float, np.ndarray, np.ndarray]] = None

    def _initial_guess(self, lam: float) -> list[float]:
        # secant extrapolation through the two most recent midpoints, else a
        # half-Euler predictor; both typically save one Newton iteration
        if self._last is not None and abs(lam - self._last[0]) < 0.5:
            l2, z2 = self._last[0], self._last[1].tolist()
            if self._prev is None:
                return z2
            l1, z1 = self._prev[0], self._prev[1].tolist()
            s = (lam - l2) / (l2 - l1)  # the two lambdas always differ
            return [b + s * (b - a) for a, b in zip(z1, z2)]
        return [x + lam * h for x, h in zip(self.z.tolist(), self._half_jgrad)]

    def _solve(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """(z_bar, H_z(z_bar)) at lambda; a repeated lambda reuses the last solve."""
        last = self._last
        if last is not None and lam == last[0]:
            return last[1], last[2]
        try:
            finite = math.isfinite(lam)  # the bare per-solve test; the finite kind words a refusal
        except TypeError:
            finite = False
        if not finite:
            _real(lam, "lambda")
        zbar, grad, _, _ = _midpoint_newton(  # 50 iterations, the decoupler's default
            self.model, lam, self.z, self._initial_guess(lam), self.tol, 50
        )
        self._prev, self._last = last, (lam, zbar, grad)
        return zbar, grad

    def g(self, lam: float) -> float:
        return _value(self.model, self._solve(lam)[0])

    def g_grid(self, lams) -> np.ndarray:
        """g at every lambda of a grid: one batched midpoint solve, cold-started.

        Leaves the warm-start history of ``g`` untouched.
        """
        zbars = solve_midpoints(self.model, lams, self.z, tol=self.tol)
        return _eval_stack(self.model, zbars, "value")[0]

    def derivative(self, lam: float) -> float:
        """dg/dlambda; right after ``g(lam)`` it reuses that midpoint solve."""
        zbar, grad = self._solve(lam)
        return float(grad @ midpoint_sensitivity(self.model, lam, zbar, grad))

    def g_and_derivative(self, lam: float) -> tuple[float, float]:
        return _value(self.model, self._solve(lam)[0]), self.derivative(lam)

    def newton(
        self,
        lam: float,
        lo: float,
        hi: float,
        tol_g: float,
        max_steps: int,
        tol_lambda: Optional[float] = None,
        g_lo: float = 0.0,
    ) -> tuple[float, float]:
        """Newton on g from ``lam``: (last iterate, g there).

        Stops at |g| <= tol_g, at a zero slope, before a step that would
        leave [lo, hi], or after ``max_steps`` steps; the caller tells a
        root from a stop by the returned residual.  g' is asked for only on
        iterations that take a step.

        With ``tol_lambda``, [lo, hi] is a sign-change bracket: g(lo) has
        the sign of ``g_lo``, g(hi) the other, and ``lam`` lies in it.  A
        safeguarded phase in the manner of ``rtsafe`` (Numerical Recipes
        9.4) runs first.  Each g value narrows the bracket by its sign.  A
        Newton step that would leave the open bracket, or that is more than
        half the step before it, becomes a bisection step: Newton is
        trusted only while it converges at least as fast.  The phase ends once
        the bracket or the last step is at most tol_lambda wide, or at
        g = 0.  It never stops at |g| <= tol_g: where g is flat that holds
        far from the root.  The plain iteration above then polishes inside
        [lo - tol_lambda, hi + tol_lambda].
        """
        val = self.g(lam)
        if tol_lambda is not None:
            a, b, lo_negative = lo, hi, g_lo < 0
            last = hi - lo  # a first Newton step may span half the bracket
            for _ in range(100):  # a cap only: bisection halves the bracket
                if val == 0.0:
                    break
                if (val < 0) == lo_negative:
                    lo = lam
                else:
                    hi = lam
                if hi - lo <= tol_lambda:
                    break
                slope = self.derivative(lam)
                nxt = 0.5 * (lo + hi)
                if abs(2.0 * val) <= abs(last * slope):  # so slope != 0
                    trial = lam - val / slope
                    if lo < trial < hi:
                        nxt = trial
                last = nxt - lam
                lam = nxt
                if abs(last) <= tol_lambda:
                    break
                val = self.g(lam)
            lo, hi = a - tol_lambda, b + tol_lambda
            val = self.g(lam)
        for _ in range(max_steps):
            if abs(val) <= tol_g:
                break
            slope = self.derivative(lam)
            if slope == 0.0:
                break
            nxt = lam - val / slope
            if not lo <= nxt <= hi:
                break
            lam = nxt
            val = self.g(lam)
        return lam, val

    def midpoint(self, lam: float) -> np.ndarray:
        return self._solve(lam)[0].copy()


def g_eval(model: HamiltonianModel, lam: float, z_k, tol: float = 1e-12) -> float:
    """H evaluated at the midpoint solution z_bar(lambda, z_k)."""
    zbar, _, _ = solve_midpoint_coords(model, lam, z_k, tol=tol)
    return eval_value(model, zbar)


def g_derivative(model: HamiltonianModel, lam: float, z_k, tol: float = 1e-12) -> float:
    """Exact dg/dlambda via implicit differentiation (no cubic truncation)."""
    zbar, _, _ = solve_midpoint_coords(model, lam, z_k, tol=tol)
    grad = eval_gradient(model, zbar)
    return float(grad @ midpoint_sensitivity(model, lam, zbar, grad=grad))


def cubic_model(model: HamiltonianModel, z_k, constants: DerivedConstants) -> CubicModel:
    """Assemble the cubic model of g at z_k from one field sample."""
    _instance(constants, "constants", DerivedConstants)
    return CubicModel.from_fields(sample_fields(model, z_k), constants)
