"""Sup-norm and Lipschitz constants over a declared region.

``estimate_bounds`` grid-samples the derivative norms of H and of the
curvature scalar psi over a box and returns the observed maxima.  Sampling
gives lower bounds of the true suprema, so certificate users should inflate
them with :meth:`RegionBounds.scaled` (the CLI default factor is 1.1) before
deriving the error constant K and the decoupling radius lambda_delta.

Vector norms are Euclidean; matrix norms are Frobenius, which upper-bounds
the spectral norm, so every derived constant stays a valid upper bound.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ParameterError, _NONNEGATIVE, _POSITIVE, _UNIT, _from_json, _instance, _parse_fields, _real,
    _refused, _vector, _whole,
)
from .extphase import (
    ExtendedState, HamiltonianModel, _coords, _eval_stack, _row_dots, eval_gradient, eval_hessian,
    psi_fd_step, psi_gradient,
)

__all__ = [
    "RegionBounds",
    "DerivedConstants",
    "estimate_bounds",
    "derive_constants",
    "bounds_to_json",
    "bounds_from_json",
]


@dataclass(frozen=True)
class RegionBounds:
    """Norm bounds valid on a box around ``center``.

    M1 bounds ||H_z||, M2 bounds ||H_zz||_F, gamma_H is the Lipschitz
    constant of H_zz, and N1/N2 bound ||psi_z|| and ||psi_zz||_F.
    ``active_axes`` lists the coordinate axes the constants actually vary
    along; the box is unbounded along the remaining axes.
    """

    M1: float
    M2: float
    gamma_H: float
    N1: float
    N2: float
    center: ExtendedState
    radius: float
    sample_count: int = 0
    mode: str = "user-supplied"
    active_axes: tuple[int, ...] = ()
    safety: float = 1.0

    def __post_init__(self):
        _parse_fields(self, {
            **dict.fromkeys(("M1", "M2", "gamma_H", "N1", "N2"), (_real, _NONNEGATIVE)),
            "radius": (_real, _POSITIVE), "safety": (_real, _POSITIVE), "center": (_instance, ExtendedState),
            "mode": (_instance, str), "sample_count": (_whole, 0),
        })
        axes = self.active_axes
        try:
            got = tuple(_whole(i, "axis") for i in axes)
        except (TypeError, ParameterError):  # not a sequence, or an entry is no whole number
            got = None
        if got is None or any(i >= self.center.coords.size for i in got) or len(set(got)) < len(got):
            raise _refused("active_axes", "distinct integer axes of the center", axes)
        object.__setattr__(self, "active_axes", got)

    def scaled(self, factor: float) -> "RegionBounds":
        """Inflate the five sampled constants by a safety factor."""
        _real(factor, "factor", _POSITIVE)
        return replace(
            self,
            M1=self.M1 * factor,
            M2=self.M2 * factor,
            gamma_H=self.gamma_H * factor,
            N1=self.N1 * factor,
            N2=self.N2 * factor,
            safety=self.safety * factor,
        )

    def contains_ball(self, z, r: float) -> bool:
        """Whether the closed ball B(z, r) fits inside the declared box.

        Only the active axes constrain the box; a Euclidean ball lies in a
        box iff every per-axis interval [z_i - r, z_i + r] does.
        """
        z = _coords(z)
        c = self.center.coords
        axes = self.active_axes or tuple(range(z.size))
        return all(abs(z[i] - c[i]) + r <= self.radius + 1e-15 for i in axes)


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from region bounds.

    gamma_z  = 2 M1 M2 + M1^2          (Lipschitz constant of dz_bar/dlambda)
    gamma_h  = N1 gamma_z + M1^2 N2    (Lipschitz constant of dh/dlambda)
    K        = (M1^2 M2^3 + 2 gamma_h) / 32   (quartic error constant)
    lambda_delta = min(1/M2, 1/gamma_H, (1-(1-delta)^2) / (2 M1))
    """

    gamma_z: float
    gamma_h: float
    K: float
    lambda_delta: float


def derive_constants(bounds: RegionBounds, delta: float = 0.5) -> DerivedConstants:
    """Apply the closed-form constant definitions to a set of bounds.

    Zero M2 or gamma_H contributes +inf to the lambda_delta minimum (the
    corresponding hypothesis is vacuous for flat models).  Bounds so large
    that gamma_z, gamma_h or K overflow raise ``ParameterError``.
    """
    _instance(bounds, "bounds", RegionBounds)
    delta = _real(delta, "delta", _UNIT)
    m1, m2, gh = bounds.M1, bounds.M2, bounds.gamma_H
    n1, n2 = bounds.N1, bounds.N2
    gamma_z = 2.0 * m1 * m2 + m1 * m1
    gamma_h = n1 * gamma_z + m1 * m1 * n2
    try:
        K = (m1 * m1 * m2**3 + 2.0 * gamma_h) / 32.0
    except OverflowError:  # float ** raises where float * gives inf
        K = math.inf
    for name, value in (("gamma_z", gamma_z), ("gamma_h", gamma_h), ("K", K)):
        if not math.isfinite(value):
            raise ParameterError(f"{name} overflows ({value}): the region bounds are too large")
    terms = [
        1.0 / m2 if m2 > 0 else np.inf,
        1.0 / gh if gh > 0 else np.inf,
        (1.0 - (1.0 - delta) ** 2) / (2.0 * m1) if m1 > 0 else np.inf,
    ]
    return DerivedConstants(gamma_z, gamma_h, K, float(min(terms)))


def _probe_axis_active(model: HamiltonianModel, center: np.ndarray, radius: float, axis: int) -> bool:
    """Probe whether derivative data varies along one axis.

    Heuristic: compare gradient/Hessian at a few offsets along the axis.
    Classical lifts are flat along t and wp, which this detects.
    """
    g0 = eval_gradient(model, center)
    h0 = eval_hessian(model, center)
    scale = 1.0 + np.linalg.norm(g0) + np.linalg.norm(h0)
    for frac in (-1.0, -0.37, 0.37, 1.0):
        z = center.copy()
        z[axis] += frac * radius
        if np.linalg.norm(eval_gradient(model, z) - g0) > 1e-12 * scale:
            return True
        if np.linalg.norm(eval_hessian(model, z) - h0) > 1e-12 * scale:
            return True
    return False


def _active_axes(model: HamiltonianModel, center: np.ndarray, radius: float) -> tuple[int, ...]:
    """Every axis but t and wp, which count when no flag rules them out and probing finds them active."""
    flagged = {model.n: model.time_independent, model.dim - 1: model.wp_affine}
    return tuple(a for a in range(model.dim)
                 if a not in flagged or (not flagged[a] and _probe_axis_active(model, center, radius, a)))


def _max_norm(rows: np.ndarray) -> float:
    """Largest Euclidean norm of the rows of a (N, d) stack, at least 0.0.

    ``np.linalg.norm`` of a vector or a raveled matrix is the sqrt of its
    dot product with itself; ``_row_dots`` takes every row's dot product
    bit for bit, so the maximum is the one a per-row norm loop finds.
    """
    return float(np.sqrt(_row_dots(rows, rows)).max(initial=0.0))


_STENCIL_BLOCK = 8  # grid points per psi_gradient call; keeps the stack small
_PAIR_SAMPLES = 20000  # random Hessian pairs for the gamma_H estimate


def _psi_suprema(model: HamiltonianModel, points: np.ndarray, active, step: float):
    """Largest ||psi_z|| and ||psi_zz||_F over the grid points.

    A point's stencil is the point and its +-step neighbours along the active
    axes; one batched ``psi_gradient`` call per block of stencils gives psi_z
    at each point (N1) and its central-difference Jacobian, symmetrized (N2).
    Without an analytic psi gradient psi_z is read off Hessians at a fixed
    1e-5, so ``step`` is the one difference N2 adds.
    """
    dim, k = points.shape[1], len(active)
    offsets = step * np.eye(dim)[list(active)]
    n1 = n2 = 0.0
    for start in range(0, len(points), _STENCIL_BLOCK):
        block = points[start : start + _STENCIL_BLOCK]
        stencils = np.empty((len(block), 1 + 2 * k, dim))
        stencils[:, 0] = block
        np.add(block[:, None], offsets, out=stencils[:, 1 : k + 1])
        np.subtract(block[:, None], offsets, out=stencils[:, k + 1 :])
        pz = psi_gradient(model, stencils.reshape(-1, dim)).reshape(stencils.shape)
        pzz = np.zeros((len(block), dim, dim))
        pzz[:, :, active] = ((pz[:, 1 : k + 1] - pz[:, k + 1 :]) / (2 * step)).transpose(0, 2, 1)
        sym = 0.5 * (pzz + pzz.transpose(0, 2, 1))
        n1 = max(n1, _max_norm(pz[:, 0]))
        n2 = max(n2, _max_norm(sym.reshape(len(block), -1)))
    return n1, n2


def estimate_bounds(
    model: HamiltonianModel,
    center: ExtendedState,
    radius: float,
    samples_per_axis: int,
) -> RegionBounds:
    """Grid-sample derivative norms over the box |z_i - center_i| <= radius.

    The t and wp axes are skipped when the model declares (or probing shows)
    that nothing varies along them.  gamma_H is estimated from grid-neighbor
    Hessian pairs plus a batch of random pairs drawn with seed 0; enlarging
    the grid can only grow the returned maxima.
    """
    _instance(model, "model", HamiltonianModel)
    _instance(center, "center", ExtendedState)
    radius = _real(radius, "radius", _POSITIVE)
    samples_per_axis = _whole(samples_per_axis, "samples_per_axis", 3)

    c = center.coords
    dim = c.size
    active = _active_axes(model, c, radius)

    grids = []
    for axis in range(dim):
        if axis in active:
            grids.append(np.linspace(c[axis] - radius, c[axis] + radius, samples_per_axis))
        else:
            grids.append(np.array([c[axis]]))
    shape = tuple(len(g) for g in grids)

    points = np.array([p for p in itertools.product(*grids)])
    count = points.shape[0]

    grads, hessians = _eval_stack(model, points, "gradient", "hessian")
    flat = hessians.reshape(count, -1)
    m1, m2 = _max_norm(grads), _max_norm(flat)
    n1, n2 = _psi_suprema(model, points, active, psi_fd_step(c + radius))

    def pair_slope(i1, i2):
        """Largest ||H_zz(a) - H_zz(b)|| / ||a - b|| over the pairs (a, b) with a != b."""
        den = np.linalg.norm(points[i1] - points[i2], axis=1)
        good = den > 0
        if not np.any(good):
            return 0.0
        num = np.linalg.norm(flat[i1[good]] - flat[i2[good]], axis=1)
        return float(np.max(num / den[good]))

    gamma = 0.0
    # neighbor pairs along each grid axis
    idx = np.arange(count).reshape(shape)
    for axis in range(dim):
        if shape[axis] > 1:
            a = np.moveaxis(idx, axis, 0)
            gamma = max(gamma, pair_slope(a[:-1].ravel(), a[1:].ravel()))
    # seeded random pairs for off-axis variation
    if count > 1:
        rng = np.random.default_rng(0)
        i1 = rng.integers(0, count, size=_PAIR_SAMPLES)
        i2 = rng.integers(0, count, size=_PAIR_SAMPLES)
        gamma = max(gamma, pair_slope(i1, i2))

    return RegionBounds(M1=m1, M2=m2, gamma_H=gamma, N1=n1, N2=n2, center=center, radius=radius,
                        sample_count=count, mode="sampled", active_axes=active)


def bounds_to_json(bounds: RegionBounds) -> str:
    return json.dumps(
        {
            "M1": bounds.M1,
            "M2": bounds.M2,
            "gamma_H": bounds.gamma_H,
            "N1": bounds.N1,
            "N2": bounds.N2,
            "center": [float(x) for x in bounds.center.coords],
            "n": bounds.center.n,
            "radius": bounds.radius,
            "sample_count": bounds.sample_count,
            "mode": bounds.mode,
            "active_axes": list(bounds.active_axes),
            "safety": bounds.safety,
        },
        indent=2,
    )


def bounds_from_json(text: str) -> RegionBounds:
    """The bounds ``bounds_to_json`` wrote, parsed by the argument kinds."""
    data = json.loads(text)
    center = ExtendedState(_vector(data["center"], "center"), _from_json(data["n"], "n", _whole, 1))
    return RegionBounds(  # RegionBounds parses the numbers; the front end reads the whole ones
        **{key: data[key] for key in ("M1", "M2", "gamma_H", "N1", "N2", "radius")},
        center=center,
        sample_count=_from_json(data.get("sample_count", 0), "sample_count", _whole, 0),
        mode=data.get("mode", "user-supplied"),
        active_axes=tuple(data.get("active_axes", ())),
        safety=data.get("safety", 1.0),
    )
