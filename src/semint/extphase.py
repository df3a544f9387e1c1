"""Extended-phase-space primitives.

A state is a point z = (q_1..q_n, t, p_1..p_n, wp) where t rides along as an
extra position coordinate and wp is the momentum conjugate to time, so the
space has dimension 2n+2.  The canonical structure matrix J pairs the
(q_1..q_n, t) block against the (p_1..p_n, wp) block.

Everything here is pure: models must not mutate state during evaluation, so
they can be shared freely across threads or processes.  A model result at
one state is checked by one rule, ``_checked``, where it enters (inside the
midpoint kernels too); a stack by ``_eval_stack``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable
from typing import Optional

import numpy as np

from .errors import (
    DimensionError, EvaluationError, _POSITIVE, _flag, _instance, _optional, _parse_fields, _real, _refused,
    _whole,
)

__all__ = [
    "ExtendedState",
    "HamiltonianModel",
    "ClassicalModel",
    "FieldSample",
    "apply_J",
    "sample_fields",
    "autonomize",
    "finite_difference_model",
    "fd_gradient",
    "fd_hessian",
    "psi_fd_step",
]


@dataclass(frozen=True)
class ExtendedState:
    """A point z = (q_1..q_n, t, p_1..p_n, wp) in extended phase space."""

    coords: np.ndarray
    n: int

    def __post_init__(self):
        try:
            coords = np.asarray(self.coords, dtype=float)
        except (TypeError, ValueError):
            raise _refused("coords", "an array of numbers", self.coords) from None
        object.__setattr__(self, "coords", coords)
        if type(self.n) is not int or self.n < 1:  # an exact int skips the call
            object.__setattr__(self, "n", _whole(self.n, "n", 1))
        if coords.ndim != 1 or coords.size != 2 * self.n + 2:
            raise DimensionError(
                f"state for n={self.n} needs {2 * self.n + 2} coordinates, "
                f"got shape {coords.shape}"
            )
        if not all(map(math.isfinite, coords.tolist())):  # on floats: no numpy pass for a few entries
            raise EvaluationError("non-finite state coordinates", coords)

    @classmethod
    def from_parts(cls, q, t, p, wp) -> "ExtendedState":
        q = np.atleast_1d(np.asarray(q, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if q.size != p.size:
            raise DimensionError(f"q has {q.size} components but p has {p.size}")
        coords = np.concatenate([q, [float(t)], p, [float(wp)]])
        return cls(coords, q.size)

    @property
    def q(self) -> np.ndarray:
        return self.coords[: self.n]

    @property
    def t(self) -> float:
        return float(self.coords[self.n])

    @property
    def p(self) -> np.ndarray:
        return self.coords[self.n + 1 : 2 * self.n + 1]

    @property
    def wp(self) -> float:
        return float(self.coords[2 * self.n + 1])


@dataclass(frozen=True)
class HamiltonianModel:
    """Evaluator bundle for H, its gradient and its Hessian on R^(2n+2).

    ``value``, ``gradient`` and ``hessian`` each take a coordinate array of
    length 2n+2.  ``psi_gradient``, when supplied, gives the gradient of the
    curvature scalar psi analytically; otherwise ``psi_gradient`` (the
    function) and ``sample_fields`` read psi_z and psi' off H_z and
    Hessians (``_third_derivative``).

    ``time_independent=True`` promises that H_z does not depend on t and
    ``wp_affine=True`` that it does not depend on wp (``False``, the
    default, promises nothing), so H_zz has zero t and wp rows and columns
    (a classical lift H = wp + H_c(q, p) keeps both).
    The region sampler then skips the t / wp axes without probing, and for
    n = 1 the midpoint Newton solve becomes a closed-form 2x2 (q, p) solve.
    Convergence is still judged on the full residual, so a wrongly declared
    flag costs Newton iterations or raises ``NonconvergenceError`` but never
    returns a wrong midpoint; ``midpoint_sensitivity``, the Kantorovich eta
    and the sampled box do rely on the promise.  psi_z and psi' do not: for
    a model without ``psi_gradient`` they read no flag.

    ``vectorized=True`` promises that every callable, ``psi_gradient``
    included, also takes an (N, dim) stack of states and returns shapes
    (N,), (N, dim), (N, dim, dim) and (N, dim), row k being the result at
    row k.  Batched evaluations (the dense g-scan of the root search,
    stacked ``sample_fields`` and ``psi_gradient`` and their probe
    Hessians) then call each once per stack;
    an undeclared model is called row by row.  A result of the wrong shape,
    at one state or on a stack, raises ``DimensionError``.
    The built-in models and every ``autonomize`` lift declare it, so
    swapping a callable that takes one state only into one of them with
    ``dataclasses.replace`` needs ``vectorized=False`` too.
    """

    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    psi_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    time_independent: bool = False
    wp_affine: bool = False
    hessian_symmetric: bool = False  # skip the symmetry check for exact models
    vectorized: bool = False  # every callable accepts (N, dim) stacks
    name: str = ""

    def __post_init__(self):
        flags = ("time_independent", "wp_affine", "hessian_symmetric", "vectorized")
        _parse_fields(self, {**_MODEL_KINDS, "psi_gradient": (_optional, _instance, Callable),
                             **dict.fromkeys(flags, (_flag,))})

    @property
    def dim(self) -> int:
        return 2 * self.n + 2


@dataclass(frozen=True)
class ClassicalModel:
    """A classical Hamiltonian H_c(q, t, p) before lifting to extended space.

    Coordinates are ordered (q_1..q_n, t, p_1..p_n), i.e. the extended layout
    with the wp slot dropped.  ``gradient`` returns a (2n+1,) vector and
    ``hessian`` a (2n+1, 2n+1) matrix in that ordering.
    """

    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    time_independent: bool = False
    name: str = ""

    def __post_init__(self):
        _parse_fields(self, {**_MODEL_KINDS, "time_independent": (_flag,)})


# the fields a model shares with a classical one
_MODEL_KINDS = {"n": (_whole, 1), **dict.fromkeys(("value", "gradient", "hessian"), (_instance, Callable)),
                "name": (_instance, str)}


@dataclass(frozen=True)
class FieldSample:
    """H, its derivatives and the curvature scalars at one point or a stack.

    ``psi`` is the quadratic form (J H_z)^T H_zz (J H_z); ``psi_prime`` is its
    Poisson bracket with H, i.e. psi_z^T J H_z.  For a (N, dim) stack every
    field gains a leading axis: H, psi and psi_prime are (N,) arrays.
    """

    H: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    psi: float | np.ndarray
    psi_prime: float | np.ndarray


def apply_J(v: np.ndarray) -> np.ndarray:
    """Apply the structure matrix J = ((0, I), (-I, 0)) to a vector.

    Splitting v = (a, b) at the midpoint gives J v = (b, -a).  The length
    must be even; for extended-phase-space vectors it is 2n+2 and the blocks
    are the position block (q, t) and the momentum block (p, wp).  A stack
    (..., 2m) is mapped row by row along its last axis.
    """
    try:
        v = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise _refused("v", "an array of numbers", v) from None
    if v.ndim == 0 or v.shape[-1] % 2 != 0:
        raise DimensionError(f"J needs an even-length vector, got shape {v.shape}")
    half = v.shape[-1] // 2
    return np.concatenate([v[..., half:], -v[..., :half]], axis=-1)


def _coords(z) -> np.ndarray:
    """The coordinate array of a state, or ``z`` as a float array; shapes are the callers' to check."""
    if isinstance(z, ExtendedState):
        return z.coords
    try:
        return np.asarray(z, dtype=float)
    except (TypeError, ValueError):
        raise _refused("state", "an ExtendedState or an array of numbers", z) from None


def _check_dim(model: HamiltonianModel, z: np.ndarray) -> None:
    """``model`` a HamiltonianModel and ``z`` one state of its dimension."""
    if type(model) is not HamiltonianModel:  # the exact type skips a call on the kernel path
        _instance(model, "model", HamiltonianModel)
    if z.ndim != 1 or z.size != model.dim:
        raise DimensionError(
            f"model has dimension {model.dim}, state has shape {z.shape}"
        )


def _shape_error(model: HamiltonianModel, kind: str, shape, expected) -> DimensionError:
    """A model result at one state whose shape is not ``expected``."""
    return DimensionError(
        f"model has dimension {model.dim}; its {kind} has shape {shape}, expected {expected}")


def _checked(model: HamiltonianModel, kind: str, z: np.ndarray, arr, shape) -> np.ndarray:
    """A model's ``kind`` result at one state z as a float array: the one-state
    twin of ``_eval_stack``'s checks (``DimensionError`` for a shape other
    than ``shape``, ``EvaluationError`` for a sum that is not finite).  Up to
    36 entries (the 6x6 Hessian of an n = 2 lift) the sum runs on Python
    floats, 0.34 to 0.76 us against 1.0 us for numpy's, above that on numpy.
    The two add alike short of 8 entries; beyond, only finite entries near
    DBL_MAX can overflow one sum and not the other."""
    try:
        arr = np.asarray(arr, dtype=float)
    except (TypeError, ValueError):  # a str, or a ragged list
        raise DimensionError(f"model has dimension {model.dim}; its {kind} is no array of numbers") from None
    if arr.shape != shape:
        raise _shape_error(model, kind, arr.shape, shape)
    # a single NaN/Inf component poisons the sum, which is far cheaper to test
    total = sum(arr.ravel().tolist()) if arr.size <= 36 else arr.sum()
    if not math.isfinite(total):
        raise EvaluationError(f"model {kind} is non-finite", z)
    return arr


def eval_gradient(model: HamiltonianModel, z) -> np.ndarray:
    z = _coords(z)
    _check_dim(model, z)
    return _gradient(model, z)


def _gradient(model: HamiltonianModel, z: np.ndarray) -> np.ndarray:
    """``eval_gradient`` at a coordinate array already of the model's shape."""
    return _checked(model, "gradient", z, model.gradient(z), z.shape)


def eval_hessian(model: HamiltonianModel, z) -> np.ndarray:
    """Evaluate the Hessian, check its shape and symmetry, and symmetrize before use."""
    z = _coords(z)
    _check_dim(model, z)
    return _hessian(model, z)


def _hessian(model: HamiltonianModel, z: np.ndarray) -> np.ndarray:
    """``eval_hessian`` at a coordinate array already of the model's shape."""
    h = _checked(model, "hessian", z, model.hessian(z), z.shape * 2)
    if model.hessian_symmetric or _bitwise_symmetric(h, h.T):
        return h
    scale = 1.0 + np.linalg.norm(h)
    if np.linalg.norm(h - h.T) > 1e-10 * scale:
        raise EvaluationError("model hessian is not symmetric", z)
    return 0.5 * (h + h.T)


def _bitwise_symmetric(h: np.ndarray, transposed: np.ndarray) -> bool:
    """Whether h and its transpose have the same float64 bit patterns.

    Bytes, not floats, are compared, so a +0.0 / -0.0 pair (equal as
    floats) counts as asymmetric.  A bitwise-symmetric Hessian passes the
    norm test, and 0.5 (h + h^T) is h bit for bit (short of an entry above
    DBL_MAX / 2, where the sum overflows), so it can skip both.
    """
    return h.tobytes() == transposed.tobytes()


def eval_value(model: HamiltonianModel, z) -> float:
    z = _coords(z)
    _check_dim(model, z)
    return _value(model, z)


def _value(model: HamiltonianModel, z: np.ndarray) -> float:
    """``eval_value`` at a coordinate array already of the model's shape."""
    v = model.value(z)
    try:
        H = float(v)
    except TypeError:  # numpy converts only a 0-d array
        if np.ndim(v) == 0:
            raise
        raise _shape_error(model, "value", np.shape(v), ()) from None
    if not math.isfinite(H):
        raise EvaluationError("model value is non-finite", z)
    return H


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for every row k of two (N, d) stacks, bit for bit the
    per-row ``a_k @ b_k``.

    A stacked (1 x d) @ (d x 1) matmul hands each row to the BLAS dot that
    the per-row product uses.  The C-contiguous copies matter: on a strided
    view numpy falls back to its own loop, which rounds differently.
    """
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def psi_fd_step(z: np.ndarray) -> float:
    """Default step for differencing psi: 1e-5 scaled with the point's size."""
    return 1e-5 * max(1.0, float(np.linalg.norm(np.asarray(z, dtype=float))))


def _eval_stack(model: HamiltonianModel, zs: np.ndarray, *kinds: str) -> list[np.ndarray]:
    """``kinds`` ("value", "gradient", "hessian", "psi_gradient") at every
    row of a (N, dim) stack.

    One rule for every kind, ``psi_gradient`` included: a ``vectorized``
    model is called once per kind, any other row by row.  The checks of the
    eval_* wrappers then run on the whole stack: the shape
    (``DimensionError``), finiteness, and the symmetry test unless
    ``hessian_symmetric`` (a row whose Hessian is not bitwise symmetric comes
    back symmetrized, every other row untouched, as for one state).  An
    ``EvaluationError`` carries the first offending row, as a row-by-row
    loop would raise it.
    """
    rows, dim = len(zs), model.dim
    shapes = {"value": (rows,), "gradient": (rows, dim), "hessian": (rows, dim, dim)}
    shapes["psi_gradient"] = shapes["gradient"]
    out, checks = [], []  # checks: (bad-row mask, message), in priority order
    for kind in kinds:
        fn = getattr(model, kind)
        if model.vectorized:
            arr = np.asarray(fn(zs), dtype=float)
        else:
            arr = np.array([fn(z) for z in zs], dtype=float)
        if arr.shape != shapes[kind]:
            raise DimensionError(
                f"model has dimension {dim}; its {kind} on {rows} states has shape "
                f"{arr.shape}, expected {shapes[kind]}"
            )
        # a single NaN/Inf component poisons a row's sum
        finite = np.isfinite(arr.reshape(rows, -1).sum(axis=1))
        checks.append((~finite, f"model {kind} is non-finite"))
        if kind == "hessian" and not model.hessian_symmetric:
            bits = np.ascontiguousarray(arr).view(np.int64)
            rows_off = (bits != bits.transpose(0, 2, 1)).any(axis=(1, 2))
            if rows_off.any():
                h, ht = arr[rows_off], arr[rows_off].transpose(0, 2, 1)
                asym = np.zeros(rows, dtype=bool)
                with np.errstate(invalid="ignore"):  # inf - inf only in non-finite rows
                    scale = 1.0 + np.linalg.norm(h, axis=(1, 2))
                    asym[rows_off] = np.linalg.norm(h - ht, axis=(1, 2)) > 1e-10 * scale
                checks.append((asym, "model hessian is not symmetric"))
                arr = arr.copy()
                arr[rows_off] = 0.5 * (h + ht)
        out.append(arr)
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        k = int(np.argmax(bad))
        raise EvaluationError(next(msg for mask, msg in checks if mask[k]), zs[k])
    return out


def _psi_rows(ws: np.ndarray, hessians: np.ndarray) -> np.ndarray:
    """psi = w_k^T H_zz w_k for every row k of a stack of w = J H_z.

    One stacked matmul, bit for bit the scalar ``w @ h @ w``: each
    (1 x d) @ (d x d) item goes through the BLAS gemv of the per-row
    ``w @ h``, and the product with w through ``_row_dots``.  (Stacked
    einsum or sum reductions would round some rows differently.)
    """
    ws, hessians = np.ascontiguousarray(ws), np.ascontiguousarray(hessians)
    return _row_dots((ws[:, None, :] @ hessians)[:, 0], ws)


def psi_gradient(model: HamiltonianModel, z) -> np.ndarray:
    """Gradient of psi at one state (dim,) or at every row of a (N, dim) stack.

    Analytic when the model carries one.  Otherwise, with w = J H_z,
    psi_z = -2 H_zz J H_zz w + D^3 H[w, w, .]: the first term exact from H_z
    and H_zz at z, the second from Hessians alone (``_third_derivative``
    along every axis, h = 1e-5), so no flag and no |z| is read and an axis
    along which H_zz does not vary reads exactly 0.  Its w-component is psi'
    (w^T H_zz J H_zz w = 0).  Each call is one checked stack of states and
    one of probes; it serves the sampled N1 / N2 bounds and ``semint verify``.
    """
    z = _coords(z)
    if model.psi_gradient is not None and z.ndim == 1:
        _check_dim(model, z)
        return _checked(model, "psi_gradient", z, model.psi_gradient(z), z.shape)
    zs = z[None] if z.ndim == 1 else z
    if zs.ndim != 2 or zs.shape[1] != _instance(model, "model", HamiltonianModel).dim:
        raise DimensionError(f"model has dimension {model.dim}, states have shape {z.shape}")
    if model.psi_gradient is not None:
        return _eval_stack(model, zs, "psi_gradient")[0]
    rows, dim = zs.shape
    grads, hessians = _eval_stack(model, zs, "gradient", "hessian")
    ws = apply_J(grads)
    turned = apply_J((hessians @ ws[:, :, None])[:, :, 0])  # J H_zz w
    out = _third_derivative(model, zs, ws, np.eye(dim), np.full(rows, 1e-5))
    out -= 2.0 * (hessians @ turned[:, :, None])[:, :, 0]
    return out[0] if z.ndim == 1 else out


def _third_derivative(model: HamiltonianModel, z: np.ndarray, w: np.ndarray, dirs: np.ndarray, h):
    """D^3 H[w, w, v] ~ w^T (H_zz(z + h v) - H_zz(z - h v)) w / (2h) for every
    direction v of ``dirs``: O(h^2) with w held fixed, and exactly 0 along a
    direction in which H_zz does not vary.

    One state: z and w (dim,), ``dirs`` (m, dim), ``h`` a float; two
    ``_hessian`` calls per v and an (m,) result.  A stack: z and w (N, dim),
    ``dirs`` (N, m, dim) or (m, dim) for every row, ``h`` (N,); the probes (row k's +h v, then its
    -h v, v in turn) are one checked stack and the products are formed as
    ``_psi_rows`` does, so row k of the (N, m) result is bit for bit the
    one-state result.  ``psi_gradient`` takes v = e_i, ``sample_fields``
    v = w, which gives psi' itself.
    """
    if z.ndim == 1:
        return np.array([w @ (_hessian(model, z + h * v) - _hessian(model, z - h * v)) @ w
                         for v in dirs]) / (2 * h)
    offsets = h[:, None, None] * dirs
    probes = np.stack([z[:, None] + offsets, z[:, None] - offsets], axis=2).reshape(-1, model.dim)
    (hessians,) = _eval_stack(model, probes, "hessian")
    ws = np.repeat(w, dirs.shape[-2], axis=0)
    return _psi_rows(ws, hessians[0::2] - hessians[1::2]).reshape(len(z), -1) / (2 * h[:, None])


def sample_fields(model: HamiltonianModel, z) -> FieldSample:
    """Evaluate H, H_z, H_zz, psi and psi' = [psi, H] at one point or a stack.

    ``z`` is one state (an ``ExtendedState`` or a (dim,) array) or a
    (N, dim) stack.  psi' is psi_z . w from the model's analytic
    ``psi_gradient`` when it carries one, and otherwise the directional
    third derivative D^3 H[w, w, w] from two probe Hessians
    (``_third_derivative``).  On a stack the model is evaluated
    through the batched path (one call per callable for a ``vectorized``
    model, row by row otherwise, with the same shape, finiteness and
    symmetry checks; an ``EvaluationError`` names the first offending row),
    and row k of every field is bit-identical to
    ``sample_fields(model, z[k])``.
    """
    z = _coords(z)
    if z.ndim == 2:
        if z.shape[1] != _instance(model, "model", HamiltonianModel).dim:
            raise DimensionError(f"model has dimension {model.dim}, states have shape {z.shape}")
        H, grads, hessians = _eval_stack(model, z, "value", "gradient", "hessian")
        ws = apply_J(grads)
        if model.psi_gradient is None:
            hs = 1e-5 / np.maximum(1.0, np.sqrt(_row_dots(ws, ws)))
            psi_prime = _third_derivative(model, z, ws, ws[:, None], hs)[:, 0]
        else:
            psi_prime = _row_dots(psi_gradient(model, z), ws)
        return FieldSample(H, grads, hessians, _psi_rows(ws, hessians), psi_prime)
    _check_dim(model, z)
    H, grad, hess = _value(model, z), _gradient(model, z), _hessian(model, z)
    w = apply_J(grad)
    psi = float(w @ hess @ w)
    if model.psi_gradient is None:
        h = 1e-5 / max(1.0, math.sqrt(w @ w))  # bit for bit the stack's sqrt of its row dot
        psi_prime = float(_third_derivative(model, z, w, w[None], h)[0])
    else:
        psi_prime = float(psi_gradient(model, z) @ w)
    return FieldSample(H=H, grad=grad, hess=hess, psi=psi, psi_prime=psi_prime)


def autonomize(classical: ClassicalModel) -> HamiltonianModel:
    """Lift a classical Hamiltonian to extended phase space: H = wp + H_c.

    The gradient gains a unit wp component and the Hessian a zero wp
    row/column, so dH/dwp = 1 identically and dH/dt = dH_c/dt.

    The lift is ``vectorized``: its callables also take an (N, dim) stack.
    The classical callables still see one state at a time, and their
    results are written into one array for the whole stack, row k bit for
    bit the lift at row k.  A model made from the lift by swapping in a
    callable that takes one state only must say so:
    ``replace(lift, hessian=f, vectorized=False)``.
    """
    n = _instance(classical, "classical", ClassicalModel).n
    dim = 2 * n + 2
    c = dim - 1  # the classical block: every coordinate but wp

    def value(z: np.ndarray):
        if z.ndim == 1:
            return float(z[c]) + float(classical.value(z[:c]))
        return z[:, c] + np.array([float(classical.value(row)) for row in z[:, :c]])

    def gradient(z: np.ndarray) -> np.ndarray:
        if z.ndim == 1:
            g = np.empty(dim)
            g[:c] = classical.gradient(z[:c])
            g[c] = 1.0
            return g
        g = np.empty(z.shape)
        block = g[:, :c]
        for k, row in enumerate(z[:, :c]):
            block[k] = classical.gradient(row)
        g[:, c] = 1.0
        return g

    def hessian(z: np.ndarray) -> np.ndarray:
        if z.ndim == 1:
            h = np.zeros((dim, dim))
            h[:c, :c] = classical.hessian(z[:c])
            return h
        h = np.zeros(z.shape + (dim,))
        block = h[:, :c, :c]
        for k, row in enumerate(z[:, :c]):
            block[k] = classical.hessian(row)
        return h

    return HamiltonianModel(
        n=n,
        value=value,
        gradient=gradient,
        hessian=hessian,
        time_independent=classical.time_independent,
        wp_affine=True,
        vectorized=True,
        name=classical.name or "lifted",
    )


def finite_difference_model(
    n: int,
    value: Callable[[np.ndarray], float],
    step: float = 1e-6,
) -> HamiltonianModel:
    """Build a model from a value function alone, differencing for the rest.

    The gradient is a central difference of the value (accurate to O(step^2))
    and the Hessian a central difference of that gradient.
    """
    step = _real(step, "step", _POSITIVE)

    def gradient(z: np.ndarray) -> np.ndarray:
        return np.array(_central_differences(value, z, step), dtype=float)

    def hessian(z: np.ndarray) -> np.ndarray:
        h = np.column_stack(_central_differences(gradient, z, max(step, 1e-5)))
        return 0.5 * (h + h.T)

    return HamiltonianModel(
        n=n,
        value=value,
        gradient=gradient,
        hessian=hessian,
        name="finite-difference",
    )


def _central_differences(f: Callable, z: np.ndarray, step: float) -> list:
    """(f(z + step e_i) - f(z - step e_i)) / (2 step) for every axis i."""
    out = []
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = step
        out.append((f(z + e) - f(z - e)) / (2 * step))
    return out


def fd_gradient(model: HamiltonianModel, z, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of H, for cross-checking models."""
    step = _real(step, "step", _POSITIVE)
    return np.array(_central_differences(lambda x: eval_value(model, x), _coords(z), step))


def fd_hessian(model: HamiltonianModel, z, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference Hessian built from the model gradient."""
    step = _real(step, "step", _POSITIVE)
    h = np.column_stack(
        _central_differences(lambda x: eval_gradient(model, x), _coords(z), step)
    )
    return 0.5 * (h + h.T)


def state_header(n: int) -> list[str]:
    """Column names of a state in coordinate order q_1..q_n, t, p_1..p_n, wp."""
    return [f"q{i + 1}" for i in range(n)] + ["t"] + [f"p{i + 1}" for i in range(n)] + ["wp"]
