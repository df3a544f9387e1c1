"""Built-in extended-phase-space Hamiltonian models.

The pendulum and the oscillator carry analytic gradient, Hessian and
psi-gradient, with closed forms of psi and its bracket with H exported as
oracles for the generic finite-difference machinery; ``free_time`` is the
``autonomize`` lift of H_c = 0.

Every built-in is ``vectorized``: each of its callables also takes an
(N, dim) stack.  One state keeps its own scalar branch, the hot path of a
single Newton solve; a stack gives the same numbers row for row.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ParameterError
from .extphase import ClassicalModel, HamiltonianModel, autonomize

__all__ = [
    "pendulum",
    "oscillator",
    "free_time",
    "pendulum_psi",
    "pendulum_psi_prime",
    "oscillator_midpoint",
    "by_name",
]


def _one_dof_lift(name, value, force, stiffness, psi_qp) -> HamiltonianModel:
    """The lift H = wp + p^2/2 + V(q) for n = 1; ``value`` is the model's own
    expression of H, ``force`` V'(q) and ``stiffness`` V''(q) of one q or a
    column, and ``psi_qp`` (dpsi/dq, dpsi/dp) of one (q, p) or two columns.
    """

    def gradient(z):
        if z.ndim == 1:
            return np.array([force(z[0]), 0.0, z[2], 1.0])
        g = np.zeros(z.shape)
        g[:, 0], g[:, 2], g[:, 3] = force(z[:, 0]), z[:, 2], 1.0
        return g

    def hessian(z):
        if z.ndim == 1:
            h = np.zeros((4, 4))
            h[0, 0], h[2, 2] = stiffness(z[0]), 1.0
            return h
        h = np.zeros(z.shape + (4,))
        h[:, 0, 0], h[:, 2, 2] = stiffness(z[:, 0]), 1.0
        return h

    def psi_gradient(z):
        if z.ndim == 1:
            dq, dp = psi_qp(z[0], z[2])
            return np.array([dq, 0.0, dp, 0.0])
        g = np.zeros(z.shape)
        g[:, 0], g[:, 2] = psi_qp(z[:, 0], z[:, 2])
        return g

    return HamiltonianModel(
        n=1,
        value=value,
        gradient=gradient,
        hessian=hessian,
        psi_gradient=psi_gradient,
        time_independent=True,
        wp_affine=True,
        hessian_symmetric=True,
        vectorized=True,
        name=name,
    )


def pendulum() -> HamiltonianModel:
    """Unit pendulum lifted to extended phase space: H = wp + p^2/2 - cos q.

    Closed forms used as oracles elsewhere:
        psi(z)  = p^2 cos q + sin^2 q
        psi'(z) = -p^3 sin q
    so psi vanishes on the v-shaped curves p^2 = -sin^2 q / cos q and psi'
    vanishes on p = 0 and q in {0, +-pi}.
    """

    def value(z):
        c = z if z.ndim == 1 else z.T  # c[i]: coordinate i of every row
        q, p, wp = c[0], c[2], c[3]
        return wp + 0.5 * p * p - np.cos(q)

    return _one_dof_lift("pendulum", value, np.sin, np.cos,
                         lambda q, p: (-p * p * np.sin(q) + np.sin(2 * q), 2 * p * np.cos(q)))


def pendulum_psi(q: float, p: float) -> float:
    return p * p * np.cos(q) + np.sin(q) ** 2


def pendulum_psi_prime(q: float, p: float) -> float:
    return -(p**3) * np.sin(q)


def oscillator(omega: float = 1.0) -> HamiltonianModel:
    """Harmonic oscillator lift: H = wp + (p^2 + omega^2 q^2)/2.

    The midpoint equations are linear, so the implicit solve has the closed
    form in :func:`oscillator_midpoint`; psi = omega^2 (p^2 + omega^2 q^2) is
    nonnegative and its bracket with H vanishes identically.
    """
    if not omega > 0:
        raise ParameterError(f"omega must be positive, got {omega}")
    w2 = float(omega) ** 2

    def value(z):
        c = z if z.ndim == 1 else z.T  # c[i]: coordinate i of every row
        q, p, wp = c[0], c[2], c[3]
        return wp + 0.5 * (p * p + w2 * q * q)

    return _one_dof_lift("oscillator", value, lambda q: w2 * q, lambda q: w2,
                         lambda q, p: (2 * w2 * w2 * q, 2 * w2 * p))


def oscillator_midpoint(z: np.ndarray, lam: float, omega: float = 1.0):
    """Closed-form midpoint of the oscillator: solves the implicit equations.

        q_bar = (q + lam p / 2) / (1 + omega^2 lam^2 / 4)
        p_bar = (p - omega^2 lam q / 2) / (1 + omega^2 lam^2 / 4)
        t_bar = t + lam / 2,  wp_bar = wp
    """
    q, t, p, wp = z
    w2 = omega * omega
    den = 1.0 + w2 * lam * lam / 4.0
    q_bar = (q + 0.5 * lam * p) / den
    p_bar = (p - 0.5 * w2 * lam * q) / den
    return np.array([q_bar, t + 0.5 * lam, p_bar, wp])


def free_time(n: int = 1) -> HamiltonianModel:
    """Degenerate model H = wp, the lift of H_c = 0: every derivative beyond dH/dwp vanishes."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
    return autonomize(ClassicalModel(  # x: the classical block (q, t, p)
        n, value=lambda x: 0.0, gradient=lambda x: np.zeros(x.size),
        hessian=lambda x: np.zeros((x.size, x.size)), time_independent=True, name="free_time"))


def by_name(name: str, **params) -> HamiltonianModel:
    """Model lookup used by the CLI config loader."""
    if name == "pendulum":
        if params:
            raise ParameterError(f"model 'pendulum' takes no parameters, got {sorted(params)}")
        return pendulum()
    if name == "oscillator":
        return oscillator(**params)
    if name == "free_time":
        return free_time(**params)
    raise ParameterError(f"unknown model '{name}'")
