"""Discrete-time Hamilton trajectories: stepping, propagation, diagnostics.

A trajectory is piecewise linear in extended phase space: vertices z_k joined
by segments whose midpoints z_bar_k satisfy both

    z_{k+1} - z_k = lambda_k J H_z(z_bar_k)      and      H(z_bar_k) = 0.

The multiplier lambda_k doubles as the time step (Delta t_k = lambda_k for
classical lifts) and is determined by the state, not chosen by the caller:
``choose_conjugate_momentum`` picks the initial wp so the first step lands
near a requested size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .bounds import DerivedConstants, RegionBounds
from .constraint import ConstraintCurve, CubicModel, cubic_model
from .decoupler import solve_midpoint_coords
from .errors import (
    EvaluationError, ParameterError, SolveError, StepNonexistenceError, UnsupportedRegionError,
    _POSITIVE, _flag, _instance, _one_of, _optional, _parse_fields, _real, _vector, _whole,
)
from .extphase import (
    ExtendedState, HamiltonianModel, _central_differences, _coords, apply_J, eval_value, sample_fields,
)
from .extphase import eval_gradient  # noqa: F401  (kept bound: the benchmark tracer rebinds it here)
from .multiplier import INDETERMINATE, RootPrediction, classify_region, predict_roots, solve_roots

__all__ = [
    "StepOptions",
    "StepResult",
    "TrajectoryEvent",
    "DTHTrajectory",
    "ConservationReport",
    "step",
    "propagate",
    "classify_vertex",
    "conservation_report",
    "choose_conjugate_momentum",
    "interpolate_at_time",
]


@dataclass(frozen=True)
class StepOptions:
    """Region data and tolerances shared by every step of a propagation; ``shrink``
    (Lambda_k over its supremum) is fixed, the rest is checked on construction."""

    bounds: RegionBounds
    constants: DerivedConstants
    tol_g: float = 1e-12
    tol_lambda: float = 1e-9
    solver_tol: float = 1e-13
    shrink: ClassVar[float] = 0.9
    policy: str = "default"  # "default" | "follow-ghost"
    # Steps may use multipliers past the case-table window Lambda_k, up to the
    # decoupling radius lambda_delta where the midpoint function is certified.
    # Roots found out there carry no uniqueness guarantee and are logged as
    # scan-based; disable to confine stepping to the theorem windows.
    search_beyond_window: bool = True

    def __post_init__(self):
        _parse_fields(self, {
            "bounds": (_instance, RegionBounds), "constants": (_instance, DerivedConstants),
            **dict.fromkeys(("tol_g", "tol_lambda", "solver_tol"), (_real, _POSITIVE)),
            "policy": (_one_of, ("default", "follow-ghost")), "search_beyond_window": (_flag,),
        })


@dataclass(frozen=True)
class StepResult:
    """One step: z_mid is the midpoint at which |H| <= tol_g was checked.

    ``fixed_point``, ``scanned`` and ``beyond_window`` are functions of lam
    and the prediction alone, whichever path (fast Newton or full search)
    chose lam.
    """

    lam: float
    z_next: ExtendedState
    z_mid: ExtendedState
    prediction: object
    fixed_point: bool = False  # lambda = 0
    took_ghost: bool = False
    ghost_alongside: bool = False
    scanned: bool = False  # lambda in the window, on a side whose verdict is indeterminate
    beyond_window: bool = False  # |lambda| exceeds the case-table window Lambda_k


@dataclass(frozen=True)
class TrajectoryEvent:
    index: int
    kind: str  # bifurcation | ghost-taken | terminated | fixed-point | prediction-indeterminate
    detail: str


@dataclass
class DTHTrajectory:
    """Vertices, midpoints, multipliers and the event log of one run."""

    vertices: list[ExtendedState]
    midpoints: list[ExtendedState]
    multipliers: list[float]
    events: list[TrajectoryEvent] = field(default_factory=list)


@dataclass(frozen=True)
class ConservationReport:
    max_energy_residual: float
    max_wp_drift: float
    max_symplectic_defect: float


def _fast_newton_root(model, z, grad, search_cap, cubic, hint, tol_g, solver_tol):
    """Newton on g from a previous step's multiplier, confined to (0, cap).

    Takes at most 11 Newton steps (12 g evaluations).  Accepts a root only
    after a mid-interval probe confirms g kept the sign of H_k before it (no
    earlier crossing), so the returned multiplier is the smallest positive
    root along a smooth run.  The probe is free when the cubic model plus
    its quartic envelope already pins the sign.  ``grad`` is H_z(z).
    Returns (lambda, z_bar), z_bar the midpoint at which |g| <= tol_g was
    checked (taken before the probe moves the curve off lambda), or None.
    """
    curve = ConstraintCurve(model, z, tol=solver_tol, grad=grad)
    start = min(max(hint, 1e-3 * search_cap), 0.999 * search_cap)
    # the open interval (0, cap) as a closed one of floats
    lo, hi = math.nextafter(0.0, 1.0), math.nextafter(search_cap, 0.0)
    lam, val = curve.newton(start, lo, hi, tol_g, 11)
    if not (abs(val) <= tol_g and 0.0 < lam < search_cap):
        return None
    z_bar = curve.midpoint(lam)
    H_k, half = cubic.H_k, 0.5 * lam
    modeled = cubic(half)
    if not (abs(modeled) > cubic.quartic_bound(half) and (modeled < 0) == (H_k < 0)):
        probe = curve.g(half)  # the model alone does not certify the sign
        if probe != 0.0 and (probe < 0) != (H_k < 0):
            return None
    return lam, z_bar


def _step_result(z_k, lam, z_bar, prediction, took_ghost=False, ghost_alongside=False):
    """The step through z_bar to 2 z_bar - z_k, its flags read off lam; lam = 0 stays at z_k."""
    if lam == 0.0:
        return StepResult(lam, z_k, z_k, prediction, fixed_point=True)
    beyond = abs(lam) > prediction.capital_lambda
    verdict = prediction.pos_interval if lam > 0 else prediction.neg_interval
    return StepResult(
        lam, ExtendedState(2.0 * z_bar - z_k.coords, z_k.n), ExtendedState(z_bar, z_k.n),
        prediction, took_ghost=took_ghost, ghost_alongside=ghost_alongside,
        scanned=not beyond and verdict == INDETERMINATE, beyond_window=beyond,
    )


def step(
    model: HamiltonianModel,
    z_k: ExtendedState,
    direction: str = "forward",
    opts: Optional[StepOptions] = None,
    hint: Optional[float] = None,
) -> StepResult:
    """One DTH step: pick the multiplier the state dictates, reflect through
    the midpoint.

    Forward means lambda > 0.  The multiplier is the smallest-magnitude root
    of the required sign within the search radius; ghost roots are taken only
    when no regular root exists on that side, or always under the
    ``follow-ghost`` policy.  A point with H_k = 0 yields the fixed-point
    step lambda = 0, z_next = z_k.  The midpoint is the one the accepted
    root's |g| was checked at.  A degenerate point (psi = psi' = 0) raises
    StepNonexistenceError carrying its degenerate prediction.
    """
    if type(z_k) is not ExtendedState or type(opts) is not StepOptions:  # exact types skip two calls
        _instance(z_k, "z_k", ExtendedState)
        _instance(opts, "opts", StepOptions)
    sign = 1.0 if _one_of(direction, "direction", ("forward", "backward")) == "forward" else -1.0
    if hint is not None:
        _real(hint, "hint")

    fields = sample_fields(model, z_k)
    cubic = CubicModel.from_fields(fields, opts.constants)
    region = classify_region(cubic)
    prediction = predict_roots(region, cubic, opts.constants, shrink=opts.shrink, tol_g=opts.tol_g)
    if region.tag == "degenerate":
        raise StepNonexistenceError(
            "degenerate point: psi and psi' both vanish; no multiplier window",
            prediction=prediction,
        )
    extend_to = opts.constants.lambda_delta if opts.search_beyond_window else None

    # fast path: warm-started Newton in a region where ghosts cannot appear;
    # zero-root points must go through the standard path to come back as
    # fixed points rather than tolerance-level micro-steps
    if (
        hint is not None
        and hint > 0
        and sign > 0
        and region.tag in ("I", "III")
        and opts.policy == "default"
        and not prediction.zero_root
    ):
        cap = prediction.capital_lambda if extend_to is None else max(
            prediction.capital_lambda, extend_to
        )
        try:
            got = _fast_newton_root(
                model, z_k, fields.grad, cap, cubic, hint, opts.tol_g, opts.solver_tol
            )
        except SolveError:
            got = None
        if got is not None:
            return _step_result(z_k, *got, prediction)

    roots = solve_roots(
        model,
        z_k,
        prediction,
        tol_g=opts.tol_g,
        tol_lambda=opts.tol_lambda,
        solver_tol=opts.solver_tol,
        extend_to=extend_to,
        grad=fields.grad,
        sides="pos" if sign > 0 else "neg",  # the step never takes the other sign
    )

    regular = [r for r in roots.roots if not r.is_ghost and r.lam * sign > 0]
    ghost = [r for r in roots.roots if r.is_ghost and r.lam * sign > 0]
    took_ghost = bool(ghost) and (opts.policy == "follow-ghost" or not regular)
    pool = ghost if took_ghost else regular
    if not pool:
        if roots.lambda_zero is not None:
            return _step_result(z_k, 0.0, None, prediction)
        searched = (
            f"searched up to {extend_to:.3g}" if extend_to is not None else
            f"within Lambda={prediction.capital_lambda:.3g}"
        )
        raise StepNonexistenceError(
            f"no {direction} multiplier {searched} ({prediction.case_label})",
            prediction=prediction,
        )

    chosen = min(pool, key=lambda r: abs(r.lam))
    return _step_result(
        z_k, chosen.lam, chosen.z_bar, prediction, took_ghost,
        ghost_alongside=bool(ghost) and not took_ghost,
    )


def propagate(
    model: HamiltonianModel,
    z0: ExtendedState,
    n_steps: int,
    opts: StepOptions,
    t_stop: Optional[float] = None,
) -> DTHTrajectory:
    """March forward up to n_steps, logging bifurcation/termination events.

    Stops early at a fixed point (lambda = 0 would loop forever), when no
    forward multiplier exists or the step cannot be evaluated or solved
    (terminated; the detail names the case or the exception), or once the
    vertex time passes t_stop.
    """
    n_steps = _whole(n_steps, "n_steps", 1)
    t_stop = _optional(t_stop, "t_stop", _real)
    traj = DTHTrajectory(vertices=[z0], midpoints=[], multipliers=[], events=[])
    z = z0
    lam_prev = lam_prev2 = None
    noted_beyond_window = False
    for k in range(n_steps):
        # extrapolating the multiplier sequence seeds Newton one order closer
        if lam_prev is None:
            hint = None
        elif lam_prev2 is None:
            hint = lam_prev
        else:
            hint = max(0.5 * lam_prev, 2.0 * lam_prev - lam_prev2)
        try:
            result = step(model, z, "forward", opts, hint=hint)
        except StepNonexistenceError as exc:
            traj.events.append(TrajectoryEvent(k, "terminated", exc.prediction.case_label))
            break
        except (EvaluationError, SolveError) as exc:
            traj.events.append(TrajectoryEvent(k, "terminated", f"{type(exc).__name__}: {exc}"))
            break
        label = result.prediction.case_label
        if result.fixed_point:
            traj.events.append(TrajectoryEvent(k, "fixed-point", label))
            break
        if result.ghost_alongside:
            traj.events.append(TrajectoryEvent(k, "bifurcation", label))
        if result.took_ghost:
            traj.events.append(TrajectoryEvent(k, "ghost-taken", label))
        if result.scanned:
            traj.events.append(TrajectoryEvent(k, "prediction-indeterminate", label))
        elif result.beyond_window and not noted_beyond_window:
            # noted once: multipliers past Lambda_k have no uniqueness backing
            noted_beyond_window = True
            detail = f"multiplier beyond case-table window ({label})"
            traj.events.append(TrajectoryEvent(k, "prediction-indeterminate", detail))
        traj.multipliers.append(result.lam)
        traj.midpoints.append(result.z_mid)
        traj.vertices.append(result.z_next)
        z = result.z_next
        lam_prev2, lam_prev = lam_prev, result.lam
        if t_stop is not None and z.t >= t_stop:
            break
    return traj


def classify_vertex(
    model: HamiltonianModel, z0: ExtendedState, constants: DerivedConstants
) -> RootPrediction:
    """What kind of vertex z0 can be, from the case tables alone.

    No root solving happens here: only the ratio windows quantified by the
    existence/uniqueness cases.  The answer is ``vertex_kind``; points
    outside every quantified window come back indeterminate, and
    psi = psi' = 0 is degenerate.
    """
    cubic = cubic_model(model, z0, constants)
    return predict_roots(classify_region(cubic), cubic, constants)


_DEFECT_FD_STEP = 1e-6  # central-difference step of the defect's Jacobian


def symplectic_defect(model: HamiltonianModel, z: ExtendedState, lam: float) -> float:
    """||D^T J D - J||_F for the fixed-lambda midpoint map at z.

    D is the central-difference Jacobian of z -> 2 z_bar(lambda, z) - z.
    """
    def the_map(x):
        zbar, _, _ = solve_midpoint_coords(model, lam, x, tol=StepOptions.solver_tol)
        return 2.0 * zbar - x

    D = np.column_stack(_central_differences(the_map, _coords(z), _DEFECT_FD_STEP))
    # row by row, v^T J = -(J v)^T; so D^T J = -apply_J(D^T) and J = -apply_J(I)
    return float(np.linalg.norm(-apply_J(D.T) @ D + apply_J(np.eye(len(D)))))


def conservation_report(
    model: HamiltonianModel,
    trajectory: DTHTrajectory,
    defect_stride: int = 1,
) -> ConservationReport:
    """Energy, conjugate-momentum and symplecticity diagnostics for a run.

    The defect is measured per step at the vertex with that step's frozen
    multiplier; ``defect_stride`` subsamples long runs.
    """
    _instance(model, "model", HamiltonianModel)
    defect_stride = _whole(defect_stride, "defect_stride", 1)
    if not _instance(trajectory, "trajectory", DTHTrajectory).vertices:
        raise ParameterError("conservation report needs a nonempty trajectory")
    energy = [abs(eval_value(model, zb.coords)) for zb in trajectory.midpoints]
    wp = [abs(b.wp - a.wp) for a, b in zip(trajectory.vertices, trajectory.vertices[1:])]
    defects = [
        symplectic_defect(model, trajectory.vertices[k], trajectory.multipliers[k])
        for k in range(0, len(trajectory.multipliers), defect_stride)
    ]
    return ConservationReport(
        max_energy_residual=max(energy, default=0.0),
        max_wp_drift=max(wp, default=0.0),
        max_symplectic_defect=max(defects, default=0.0),
    )


def choose_conjugate_momentum(
    model: HamiltonianModel,
    q0,
    t0: float,
    p0,
    lambda_target: float,
) -> float:
    """Pick wp0 so the first forward multiplier lands near lambda_target.

    The cubic model's leading balance H(z0) = psi(z0) lambda^2 / 8 fixes wp0
    to first order; one secant correction against the actually solved
    multiplier tightens it.  Needs psi(z0) != 0 (away from the vanishing
    curves; near them use the region-III analysis instead).
    """
    q0, t0, p0 = _vector(q0, "q0"), _real(t0, "t0"), _vector(p0, "p0")
    lambda_target = _real(lambda_target, "lambda_target", _POSITIVE)
    if not math.isfinite(lambda_target * lambda_target):
        raise ParameterError(f"lambda_target {lambda_target:g} is too large: its square overflows")

    def make_state(wp):
        return ExtendedState.from_parts(q0, t0, p0, wp)

    def balance(wp):
        fields = sample_fields(model, make_state(wp))
        return fields.H - fields.psi * lambda_target**2 / 8.0, fields

    # secant solve of the leading-order balance (exact in one step for lifts,
    # where H is affine in wp with unit slope); ``fields`` is always the
    # sample at the current wp
    wp_a, wp_b = 0.0, 1.0
    fa, _ = balance(wp_a)
    fb, fields = balance(wp_b)
    if abs(fields.psi) < 1e-12:
        raise UnsupportedRegionError(
            "psi vanishes at the requested point; conjugate-momentum completion "
            "is undefined (region III applies)"
        )
    wp = wp_b
    for _ in range(50):
        if fb == fa:
            break
        wp = wp_b - fb * (wp_b - wp_a) / (fb - fa)
        f, fields = balance(wp)
        if abs(f) <= 1e-14 * (1.0 + abs(wp)):
            break
        wp_a, fa = wp_b, fb
        wp_b, fb = wp, f

    # one refinement on the actually solved forward multiplier: Newton on g
    # with its iterates kept in the open interval (0, 4 lambda_target)
    z = make_state(wp)
    curve = ConstraintCurve(model, z, tol=StepOptions.solver_tol, grad=fields.grad)
    hi = math.nextafter(4.0 * lambda_target, 0.0)
    lam, _ = curve.newton(lambda_target, math.nextafter(0.0, 1.0), hi, 1e-13, 20)
    # dH/dwp is 1 for lifts; read it off the gradient for custom models
    dH_dwp = float(fields.grad[-1])
    if dH_dwp == 0.0:
        return float(wp)
    return float(wp + fields.psi * (lambda_target**2 - lam**2) / (8.0 * dH_dwp))


def interpolate_at_time(trajectory: DTHTrajectory, t: float) -> ExtendedState:
    """State at time t on the piecewise-linear trajectory (exact on segments)."""
    verts = _instance(trajectory, "trajectory", DTHTrajectory).vertices
    t = _real(t, "t")
    if not verts:
        raise ParameterError("empty trajectory")
    n = verts[0].n
    times = [v.t for v in verts]
    if not (min(times) <= t <= max(times)):
        raise ParameterError(f"t={t} outside trajectory time range [{times[0]}, {times[-1]}]")
    for a, b in zip(verts, verts[1:]):
        ta, tb = a.t, b.t
        if (ta <= t <= tb) or (tb <= t <= ta):
            if tb == ta:
                return a
            w = (t - ta) / (tb - ta)
            return ExtendedState((1 - w) * a.coords + w * b.coords, n)
    return verts[-1]
