"""Implicit midpoint solves and their solvability certificates.

The discrete-time Hamilton step couples a vertex z to its partner
2 z_bar - z through the midpoint z_bar via

    f(lambda, z, z_bar) = z_bar - z - (lambda/2) J H_z(z_bar) = 0,

so z_bar(lambda, z) is implicitly defined.  ``solve_midpoint_coords``
computes it by Newton iteration started at z_bar = z, which is exactly the
iterate sequence the Kantorovich certificate in ``kantorovich_report`` speaks
about: when the certificate holds, the iteration converges to the unique
solution inside the ball of radius r_minus about z.

For a one-degree-of-freedom lift (n = 1 with ``time_independent`` and
``wp_affine`` declared) H_zz has zero t and wp rows and columns, so f_zbar is
the identity on (t, wp) and a 2x2 block on (q, p).  Every array solve with
f_zbar, at one state or row by row on a stack, is ``_solve_f``: Cramer's rule
(``_cramer``) on that block for such a lift, one (batched) ``np.linalg.solve``
on the (2n+2)x(2n+2) Jacobian for any other model.  The n = 1 Newton core and
sensitivity solve the block on Python floats (``_solve_qp``): on the DTH fast
path an array route measured 1.31x and 1.58x their cost.
Convergence is always judged on the full residual.

``_midpoint_newton`` is the core of ``solve_midpoint_coords`` without its
argument checks, for callers that built their arrays themselves:
``constraint.ConstraintCurve``, the kernel of the DTH fast path, which asks
``midpoint_sensitivity`` for a slope only on Newton iterations that take a
step.  The core also returns the H_z(z_bar) of its final residual, so the
fast path's dg/dlambda needs no further gradient call.  The public
functions check their arguments once, at entry; every model result is
checked where it enters by the one-state rule, ``extphase._checked``
(a float sum, through ``_gradient`` and ``_hessian``), which the n = 1 float
core applies inline to the four gradient floats it unpacks.  The core runs
the same floating-point operations as the public function, so its results
are bit-identical.

``solve_midpoints`` runs the same Newton iteration for a whole grid of
lambdas at one z as one masked batch: every row starts at z_bar = z, freezes
at the first iterate that meets the tolerance, and the rows still active
share one stacked model evaluation and one stacked ``_solve_f`` per
iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import RegionBounds, derive_constants
from .errors import (
    EvaluationError, LinearSolveError, NonconvergenceError, _POSITIVE, _real, _refused, _vector,
    _whole,
)
from .extphase import (
    ExtendedState, HamiltonianModel, _check_dim, _checked, _coords, _eval_stack, _gradient,
    _hessian, _shape_error, apply_J, eval_gradient,
)
from .extphase import eval_hessian  # noqa: F401  (kept bound: the benchmark tracer rebinds it here)

__all__ = [
    "KantorovichReport",
    "solve_midpoint_coords",
    "solve_midpoints",
    "kantorovich_report",
    "midpoint_sensitivity",
]


@dataclass(frozen=True)
class KantorovichReport:
    """Newton-Kantorovich certificate data for the midpoint solve.

    With beta = 2 and gamma = 1/2 fixed by the operator structure, eta is the
    measured first Newton step and alpha = beta*gamma*eta.  ``guaranteed``
    states that the certificate hypotheses all hold: alpha < 1/2, the ball
    B(z, r_minus) lies inside the declared region, and |lambda| is small
    enough that beta and gamma are valid (|lambda| <= 1/M2 and 1/gamma_H).
    """

    alpha: float
    beta: float
    gamma: float
    eta: float
    r_minus: float
    r_plus: float
    lambda_delta: float
    guaranteed: bool


_EYE: dict[int, np.ndarray] = {}


def _identity(dim: int) -> np.ndarray:
    eye = _EYE.get(dim)
    if eye is None:
        eye = np.eye(dim)
        _EYE[dim] = eye
    return eye


def _closed_form(model: HamiltonianModel) -> bool:
    """Whether f_zbar reduces to a 2x2 (q, p) block (see the module docstring)."""
    return model.n == 1 and model.time_independent and model.wp_affine


def _singular(lam: float) -> LinearSolveError:
    return LinearSolveError(
        f"singular midpoint Jacobian at lambda={lam:g}; |lambda| likely too large"
    )


def _not_converged(tol: float, max_iter: int, residual: float) -> NonconvergenceError:
    msg = f"midpoint solve did not reach tol={tol:g} in {max_iter} iterations"
    return NonconvergenceError(msg, residual=residual, iterations=max_iter)


def _cramer(c, h_qq, h_qp, h_pq, h_pp, r_q, r_p):
    """Cramer's rule on the (q, p) block of f_zbar x = r for an n = 1 lift.

    With z = (q, t, p, wp) the block is
    ((1 - c H_pq, -c H_pp), (c H_qq, 1 + c H_qp)), c = lambda/2.  Returns
    (det, det x_q, det x_p); the caller tests det before dividing.  The
    arguments are floats or the entries of one state or a stack alike.
    """
    a11 = 1.0 - c * h_pq
    a12 = -c * h_pp
    a21 = c * h_qq
    a22 = 1.0 + c * h_qp
    return a11 * a22 - a12 * a21, a22 * r_q - a12 * r_p, a11 * r_p - a21 * r_q


def _solve_qp(hess: np.ndarray, lam: float, r_q: float, r_p: float) -> tuple[float, float]:
    """``_cramer`` on one checked 4x4 Hessian and floats; a singular block
    raises LinearSolveError."""
    det, num_q, num_p = _cramer(
        0.5 * lam, hess.item(0, 0), hess.item(0, 2), hess.item(2, 0), hess.item(2, 2), r_q, r_p
    )
    if det == 0.0 or not math.isfinite(det):
        raise _singular(lam)
    return num_q / det, num_p / det


def _solve_f(model: HamiltonianModel, lam, hess: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve f_zbar x = rhs at one state (float lambda, (d, d) Hessian, (d,)
    rhs) or row by row on a stack ((N,) lambdas, (N, d, d), (N, d)): Cramer's
    rule on the (q, p) block for an n = 1 lift (the t and wp rows pass
    through), one (batched) LU solve for every other model.  A singular row
    raises LinearSolveError naming its lambda.  No caller hands it one state
    of an n = 1 lift (its kernels solve that block on floats, ``_solve_qp``):
    the Cramer branch serves the stacks of ``solve_midpoints`` alone, so it
    runs inside that loop's ``np.errstate`` (an overflowing det warns
    nothing and counts as singular) and writes x into the rhs that loop
    hands it, a fresh -f."""
    c = 0.5 * lam
    if _closed_form(model):
        det, num_q, num_p = _cramer(
            c, hess[..., 0, 0], hess[..., 0, 2], hess[..., 2, 0], hess[..., 2, 2],
            rhs[..., 0], rhs[..., 2],
        )
        singular = (det == 0.0) | ~np.isfinite(det)
        if not singular.any():
            rhs[..., 0], rhs[..., 2] = num_q / det, num_p / det
            return rhs
    else:
        dim = rhs.shape[-1]
        jh = np.concatenate([hess[..., dim // 2:, :], -hess[..., :dim // 2, :]], axis=-2)  # J H_zz
        if rhs.ndim == 2:  # a stack: each row's J H_zz times its own c, its rhs as a column
            c, rhs = c[:, None, None], rhs[..., None]
        jac = _identity(dim) - c * jh
        try:
            x = np.linalg.solve(jac, rhs)
            return x if x.ndim == 1 else x[..., 0]
        except np.linalg.LinAlgError:
            singular = np.linalg.det(jac) == 0.0  # LU met a zero pivot there
    raise _singular(np.atleast_1d(lam)[np.argmax(singular)])


def _solve_midpoint_qp(
    model: HamiltonianModel,
    lam: float,
    z: np.ndarray,
    start,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """``_midpoint_newton`` for n = 1 lifts, iterating on Python floats.

    The residual is the full four-component one; only the Newton correction
    uses the block structure (t and wp move by -f_t and -f_wp).
    """
    q0, t0, p0, w0 = z.tolist()
    q, t, p, w = start
    z_bar = np.array([q, t, p, w])
    c = 0.5 * lam
    grad_fn = model.gradient
    for it in range(max_iter + 1):
        grad = np.asarray(grad_fn(z_bar), dtype=float)
        if grad.shape != (4,):  # the float twin of ``extphase._checked``
            raise _shape_error(model, "gradient", grad.shape, (4,))
        g_q, g_t, g_p, g_w = grad.tolist()
        if not math.isfinite(g_q + g_t + g_p + g_w):
            raise EvaluationError("model gradient is non-finite", z_bar)
        f_q = q - q0 - c * g_p
        f_t = t - t0 - c * g_w
        f_p = p - p0 + c * g_q
        f_w = w - w0 + c * g_t
        res = math.sqrt(f_q * f_q + f_t * f_t + f_p * f_p + f_w * f_w)
        if res <= tol:
            return z_bar, grad, it, res
        if it == max_iter:
            raise _not_converged(tol, max_iter, res)
        d_q, d_p = _solve_qp(_hessian(model, z_bar), lam, -f_q, -f_p)
        q, t, p, w = q + d_q, t - f_t, p + d_p, w - f_w
        z_bar = np.array([q, t, p, w])


def _midpoint_newton(
    model: HamiltonianModel,
    lam: float,
    z: np.ndarray,
    start,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Newton for z_bar from ``start``: (z_bar, H_z(z_bar), iterations, residual).

    ``solve_midpoint_coords`` without its argument checks: ``z`` is a float
    array of the model's dimension, ``start`` a float sequence of the same
    length (left unchanged), ``lam`` finite and ``tol`` positive.
    """
    if _closed_form(model):
        return _solve_midpoint_qp(model, lam, z, start, tol, max_iter)
    z_bar = np.array(start, dtype=float)
    half = z.size // 2
    half_lam = 0.5 * lam
    for it in range(max_iter + 1):
        g = _gradient(model, z_bar)
        f = z_bar - z
        f[:half] -= half_lam * g[half:]
        f[half:] += half_lam * g[:half]
        res = math.sqrt(f @ f)
        if res <= tol:
            return z_bar, g, it, res
        if it == max_iter:
            raise _not_converged(tol, max_iter, res)
        z_bar = z_bar + _solve_f(model, lam, _hessian(model, z_bar), -f)


def solve_midpoint_coords(
    model: HamiltonianModel,
    lam: float,
    z,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> tuple[np.ndarray, int, float]:
    """Newton solve for z_bar, started at z itself (an ExtendedState or its coords).

    Returns (z_bar, iterations, residual) as coordinates; the partner vertex
    is 2 z_bar - z.
    """
    lam, tol, max_iter = _real(lam, "lambda"), _real(tol, "tol", _POSITIVE), _whole(max_iter, "max_iter")
    z = _coords(z)
    _check_dim(model, z)
    z_bar, _, it, res = _midpoint_newton(model, lam, z, z.tolist(), tol, max_iter)
    return z_bar, it, res


def solve_midpoints(
    model: HamiltonianModel,
    lams,
    z: np.ndarray,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """z_bar(lambda, z) for every lambda of a grid, as a (len(lams), dim) array.

    Row k follows the iterate sequence of ``solve_midpoint_coords(model,
    lams[k], z, tol, max_iter)`` started at z_bar = z (the start the
    Kantorovich certificate speaks about) up to rounding, and raises what
    that call would: ``NonconvergenceError`` if a row misses ``tol`` after
    ``max_iter`` steps, ``LinearSolveError`` naming the first singular row's
    lambda, ``EvaluationError`` naming the first row with a non-finite model
    result.  The model sees one stack of the active rows per evaluation.
    Each iteration makes one stacked ``_solve_f``, so a row is singular
    exactly where the scalar solve finds it singular.  The active rows are
    gathered again only on iterations where some row froze.
    Overflow in the stacked arithmetic raises no numpy warning: a row it
    makes non-finite is caught as the scalar solve would catch it.
    """
    if np.ndim(lams) != 1:  # the vector kind would read a number as a grid of one
        raise _refused("lambdas", "a 1-D sequence of finite numbers", lams)
    lams, tol, max_iter = _vector(lams, "lambdas"), _real(tol, "tol", _POSITIVE), _whole(max_iter, "max_iter")
    z = _coords(z)
    _check_dim(model, z)
    half = z.size // 2
    z_bar = np.empty((lams.size, z.size))  # each row written once, when it freezes
    # the active rows (not yet within tol): their indices, iterates and lambda/2
    active, zs, c = np.arange(lams.size), np.tile(z, (lams.size, 1)), 0.5 * lams
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while active.size:
            (g,) = _eval_stack(model, zs, "gradient")
            f = zs - z
            f[:, :half] -= c[:, None] * g[:, half:]
            f[:, half:] += c[:, None] * g[:, :half]
            moving = np.sqrt((f * f).sum(axis=1)) > tol
            if not moving.all():  # the others freeze at this iterate
                z_bar[active[~moving]] = zs[~moving]
                active, zs, f, c = active[moving], zs[moving], f[moving], c[moving]
                if not active.size:
                    break
            if it == max_iter:
                raise _not_converged(tol, max_iter, float(np.sqrt(f[0] @ f[0])))
            (hess,) = _eval_stack(model, zs, "hessian")
            zs = zs + _solve_f(model, lams[active], hess, -f)
            it += 1
    return z_bar


def kantorovich_report(
    model: HamiltonianModel,
    lam: float,
    z: ExtendedState,
    bounds: RegionBounds,
    delta: float = 0.5,
) -> KantorovichReport:
    """Certificate for solvability of the midpoint equation at (lambda, z).

    eta is the length of the first Newton step from z_bar = z,
    f_zbar^{-1} (lambda/2) J H_z(z) = lambda z_bar', so |lambda| times the
    ``midpoint_sensitivity`` z_bar' read at z_bar = z; lambda_delta comes from
    the region constants and delta.  alpha >= 1/2 yields guaranteed=False
    rather than an exception.
    """
    lambda_delta = derive_constants(bounds, delta).lambda_delta  # parses bounds and delta
    lam = _real(lam, "lambda")
    z_arr = _coords(z)
    beta, gamma = 2.0, 0.5
    eta = abs(lam) * float(np.linalg.norm(midpoint_sensitivity(model, lam, z_arr)))
    alpha = beta * gamma * eta

    m2, gh = bounds.M2, bounds.gamma_H
    if alpha < 0.5:
        root = np.sqrt(1.0 - 2.0 * alpha)
        r_minus = (1.0 - root) / (beta * gamma)
        r_plus = (1.0 + root) / (beta * gamma)
        lam_ok = abs(lam) <= (1.0 / m2 if m2 > 0 else np.inf) and abs(lam) <= (
            1.0 / gh if gh > 0 else np.inf
        )
        guaranteed = lam_ok and bounds.contains_ball(z_arr, r_minus)
    else:
        r_minus = r_plus = np.nan
        guaranteed = False
    return KantorovichReport(alpha, beta, gamma, eta, r_minus, r_plus, lambda_delta, guaranteed)


def midpoint_sensitivity(
    model: HamiltonianModel, lam: float, z_bar, grad: Optional[np.ndarray] = None
) -> np.ndarray:
    """dz_bar/dlambda at a solved midpoint: one linear solve.

    Implicit differentiation of the midpoint equation gives
    z_bar_lambda = f_zbar^{-1} (1/2) J H_z(z_bar), solved by ``_solve_f``.
    ``grad`` is H_z(z_bar) when the caller has already evaluated it.  For an
    n = 1 lift the right-hand side is (g_p, g_wp, -g_q, -g_t) / 2 and f_zbar
    is the identity on its t and wp rows, so the (q, p) block is solved on
    floats (``_solve_qp``), the fast path's route.
    """
    _real(lam, "lambda")
    zb = _coords(z_bar)
    _check_dim(model, zb)
    grad = eval_gradient(model, zb) if grad is None else _checked(model, "gradient", zb, grad, zb.shape)
    if _closed_form(model):
        g_q, g_t, g_p, g_w = grad.tolist()
        d_q, d_p = _solve_qp(_hessian(model, zb), lam, 0.5 * g_p, -0.5 * g_q)
        return np.array([d_q, 0.5 * g_w, d_p, -0.5 * g_t])
    return _solve_f(model, lam, _hessian(model, zb), 0.5 * apply_J(grad))
