"""The decoupled constraint g(lambda, z_k) = H(z_bar(lambda, z_k)).

Multiplier existence questions reduce to roots of g in lambda.  Two tools
live here: the exact derivative dg/dlambda = H_z(z_bar)^T dz_bar/dlambda
(used for Newton polishing, never approximated), and the cubic model

    g(lambda) ~ H_k - psi_k lambda^2 / 8 - psi'_k lambda^3 / 24

whose defect is bounded by K |lambda|^4 for |lambda| <= lambda_delta.  The
model is reserved for prediction and bracketing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import DerivedConstants
from .decoupler import midpoint_sensitivity, solve_midpoint_coords, solve_midpoints
from .extphase import (
    ExtendedState,
    HamiltonianModel,
    _eval_stack,
    apply_J as _apply_J_arr,
    eval_gradient,
    eval_value,
    sample_fields,
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
        max_iter: int = 50,
    ):
        self.model = model
        self.z = z_k.coords if isinstance(z_k, ExtendedState) else np.asarray(z_k, dtype=float)
        self.tol = tol
        self.max_iter = max_iter
        self._half_jgrad = 0.5 * _apply_J_arr(eval_gradient(self.model, self.z))
        self._prev: Optional[tuple[float, np.ndarray]] = None
        self._last: Optional[tuple[float, np.ndarray]] = None

    def _initial_guess(self, lam: float) -> Optional[np.ndarray]:
        # secant extrapolation through the two most recent midpoints, else a
        # half-Euler predictor; both typically save one Newton iteration
        if self._last is not None:
            l2, z2 = self._last
            if self._prev is not None:
                l1, z1 = self._prev
                if l1 != l2 and abs(lam - l2) < 0.5:
                    return z2 + (lam - l2) / (l2 - l1) * (z2 - z1)
            if abs(lam - l2) < 0.5:
                return z2
        return self.z + lam * self._half_jgrad

    def _zbar(self, lam: float) -> np.ndarray:
        if self._last is not None and lam == self._last[0]:
            return self._last[1]
        zbar, _, _ = solve_midpoint_coords(
            self.model,
            lam,
            self.z,
            tol=self.tol,
            max_iter=self.max_iter,
            initial=self._initial_guess(lam),
        )
        if self._last is not None and self._last[0] != lam:
            self._prev = self._last
        self._last = (lam, zbar)
        return zbar

    def g(self, lam: float) -> float:
        return eval_value(self.model, self._zbar(lam))

    def g_grid(self, lams) -> np.ndarray:
        """g at every lambda of a grid: one batched midpoint solve, cold-started.

        Leaves the warm-start history of ``g`` untouched.
        """
        zbars = solve_midpoints(self.model, lams, self.z, tol=self.tol, max_iter=self.max_iter)
        return _eval_stack(self.model, zbars, "value")[0]

    def g_and_derivative(self, lam: float) -> tuple[float, float]:
        zbar = self._zbar(lam)
        val = eval_value(self.model, zbar)
        grad = eval_gradient(self.model, zbar)
        slope = float(grad @ midpoint_sensitivity(self.model, lam, zbar, grad=grad))
        return val, slope

    def midpoint(self, lam: float) -> np.ndarray:
        return self._zbar(lam).copy()


def g_eval(model: HamiltonianModel, lam: float, z_k, tol: float = 1e-12) -> float:
    """H evaluated at the midpoint solution z_bar(lambda, z_k)."""
    z = z_k.coords if isinstance(z_k, ExtendedState) else np.asarray(z_k, dtype=float)
    zbar, _, _ = solve_midpoint_coords(model, lam, z, tol=tol)
    return eval_value(model, zbar)


def g_derivative(model: HamiltonianModel, lam: float, z_k, tol: float = 1e-12) -> float:
    """Exact dg/dlambda via implicit differentiation (no cubic truncation)."""
    z = z_k.coords if isinstance(z_k, ExtendedState) else np.asarray(z_k, dtype=float)
    zbar, _, _ = solve_midpoint_coords(model, lam, z, tol=tol)
    grad = eval_gradient(model, zbar)
    return float(grad @ midpoint_sensitivity(model, lam, zbar, grad=grad))


def cubic_model(
    model: HamiltonianModel,
    z_k,
    constants: DerivedConstants,
    psi_step: Optional[float] = None,
) -> CubicModel:
    """Assemble the cubic model of g at z_k from one field sample."""
    fields = sample_fields(model, z_k, psi_step=psi_step)
    return CubicModel(
        H_k=fields.H,
        psi_k=fields.psi,
        psi_prime_k=fields.psi_prime,
        K=constants.K,
        lambda_delta=constants.lambda_delta,
    )
