import os
from pathlib import Path

import numpy as np
import pytest

# the CLI tests run `python -m semint` in a subprocess, which must find src/ too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from semint import models
from semint.bounds import derive_constants, estimate_bounds
from semint.extphase import ClassicalModel, ExtendedState, HamiltonianModel, autonomize

PEND_RADIUS = 2.5
DELTA = 0.5
SAFETY = 1.1


@pytest.fixture(scope="session")
def pendulum():
    return models.pendulum()


@pytest.fixture(scope="session")
def pendulum_origin():
    return ExtendedState.from_parts([0.0], 0.0, [0.0], 0.0)


@pytest.fixture(scope="session")
def pendulum_bounds(pendulum, pendulum_origin):
    """Raw sampled bounds on the standard test box |q|,|p| <= 2.5."""
    return estimate_bounds(pendulum, pendulum_origin, PEND_RADIUS, 17)


@pytest.fixture(scope="session")
def pendulum_scaled(pendulum_bounds):
    return pendulum_bounds.scaled(SAFETY)


@pytest.fixture(scope="session")
def pendulum_constants(pendulum_scaled):
    return derive_constants(pendulum_scaled, DELTA)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def pendulum_analytic_suprema(radius=2.0, fine=1201):
    """Closed-form derivative norms of the pendulum maximized on the box."""
    q = np.linspace(-radius, radius, fine)
    p = np.linspace(-radius, radius, fine)
    Q, P = np.meshgrid(q, p, indexing="ij")
    m1 = np.sqrt(np.sin(Q) ** 2 + P**2 + 1.0).max()
    m2 = np.sqrt(np.cos(Q) ** 2 + 1.0).max()
    gamma_H = np.abs(np.sin(Q)).max()
    n1 = np.sqrt((np.sin(2 * Q) - P**2 * np.sin(Q)) ** 2 + 4 * P**2 * np.cos(Q) ** 2).max()
    n2 = np.sqrt(
        (-(P**2) * np.cos(Q) + 2 * np.cos(2 * Q)) ** 2
        + 2 * (2 * P * np.sin(Q)) ** 2
        + (2 * np.cos(Q)) ** 2
    ).max()
    return float(m1), float(m2), float(gamma_H), float(n1), float(n2)


def pendulum_state(q, p, wp=0.0, t=0.0):
    return ExtendedState.from_parts([q], t, [p], wp)


def henon_heiles_lift():
    """n = 2 Henon-Heiles lift H = wp + H_c with no analytic psi gradient.

    H_c = (px^2 + py^2)/2 + (x^2 + y^2)/2 + x^2 y - y^3/3; the lift declares
    both flags, so psi is differenced along x, y, px and py only.
    """

    def value(c):
        x, y, _, px, py = c
        return 0.5 * (px * px + py * py) + 0.5 * (x * x + y * y) + x * x * y - y**3 / 3.0

    def gradient(c):
        x, y, _, px, py = c
        return np.array([x + 2.0 * x * y, y + x * x - y * y, 0.0, px, py])

    def hessian(c):
        x, y = c[0], c[1]
        h = np.zeros((5, 5))
        h[0, 0], h[0, 1], h[1, 0], h[1, 1] = 1.0 + 2.0 * y, 2.0 * x, 2.0 * x, 1.0 - 2.0 * y
        h[3, 3] = h[4, 4] = 1.0
        return h

    return autonomize(
        ClassicalModel(n=2, value=value, gradient=gradient, hessian=hessian, time_independent=True)
    )


def no_lift_model(kind):
    """An n = 1 pendulum model that is no lift H = a wp + H_c with a != 0.

    ``"no-wp"``: H = p^2/2 - cos q does not read wp.  ``"quadratic-wp"``:
    H = wp^2/2 + p^2/2 - cos q, declaring no flags.  ``"flat-gradient"``:
    H = wp + p^2/2 - cos q, whose gradient's wp entry reads 0.
    """
    quadratic = kind == "quadratic-wp"

    def value(c):
        q, _, p, wp = c
        return 0.5 * p * p - np.cos(q) + {"no-wp": 0.0, "quadratic-wp": 0.5 * wp * wp,
                                          "flat-gradient": wp}[kind]

    def gradient(c):
        q, _, p, wp = c
        return np.array([np.sin(q), 0.0, p, wp if quadratic else 0.0])

    def hessian(c):
        return np.diag([np.cos(c[0]), 0.0, 1.0, 1.0 if quadratic else 0.0])

    return HamiltonianModel(n=1, value=value, gradient=gradient, hessian=hessian, name=kind)
