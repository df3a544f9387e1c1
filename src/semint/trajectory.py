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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import DerivedConstants, RegionBounds
from .constraint import ConstraintCurve, CubicModel, cubic_model
from .decoupler import solve_midpoint_coords
from .errors import (
    LinearSolveError,
    NonconvergenceError,
    ParameterError,
    StepNonexistenceError,
    UnsupportedRegionError,
)
from .extphase import (
    ExtendedState,
    HamiltonianModel,
    apply_J,
    eval_gradient,
    eval_value,
    sample_fields,
)
from .multiplier import (
    GHOST_S_EDGE,
    INDETERMINATE,
    Region,
    classify_region,
    predict_roots,
    solve_roots,
)

__all__ = [
    "StepOptions",
    "StepResult",
    "TrajectoryEvent",
    "DTHTrajectory",
    "VertexClass",
    "ConservationReport",
    "step",
    "propagate",
    "classify_vertex",
    "case_table_vertex",
    "conservation_report",
    "choose_conjugate_momentum",
    "interpolate_at_time",
]


@dataclass(frozen=True)
class StepOptions:
    """Region data and tolerances shared by every step of a propagation."""

    bounds: RegionBounds
    constants: DerivedConstants
    tol_g: float = 1e-12
    tol_lambda: float = 1e-9
    solver_tol: float = 1e-13
    shrink: float = 0.9
    policy: str = "default"  # "default" | "follow-ghost"
    scan_points: int = 256
    psi_step: Optional[float] = None
    # Steps may use multipliers past the case-table window Lambda_k, up to the
    # decoupling radius lambda_delta where the midpoint function is certified.
    # Roots found out there carry no uniqueness guarantee and are logged as
    # scan-based; disable to confine stepping to the theorem windows.
    search_beyond_window: bool = True


@dataclass(frozen=True)
class StepResult:
    lam: float
    z_next: ExtendedState
    z_mid: ExtendedState
    prediction: object
    fixed_point: bool
    took_ghost: bool
    ghost_alongside: bool
    scanned: bool  # an indeterminate in-window verdict was resolved by scanning
    beyond_window: bool  # |lambda| exceeds the case-table window Lambda_k


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

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class VertexClass:
    """Main-theorem classification of a candidate vertex point."""

    kind: str  # pass-through | bifurcates | begins-or-ends | none | fixed-point | indeterminate | degenerate
    ratio: Optional[float]
    ratio_kind: Optional[str]  # "H/psi" | "H/psi_prime"
    capital_lambda: Optional[float]
    region_tag: str
    case_label: str


@dataclass(frozen=True)
class ConservationReport:
    max_energy_residual: float
    max_wp_drift: float
    max_symplectic_defect: float
    symplectic_defects: tuple[float, ...]


def _fast_newton_root(model, z, search_cap, cubic, hint, tol_g, solver_tol, max_iter=12):
    """Newton on g from a previous step's multiplier, confined to (0, cap).

    Accepts a root only after a mid-interval probe confirms g kept the sign
    of H_k before it (no earlier crossing), so the returned multiplier is the
    smallest positive root along a smooth run.  The probe is free when the
    cubic model plus its quartic envelope already pins the sign.
    """
    curve = ConstraintCurve(model, z, tol=solver_tol)
    lam = min(max(hint, 1e-3 * search_cap), 0.999 * search_cap)
    H_k = cubic.H_k
    for _ in range(max_iter):
        val, slope = curve.g_and_derivative(lam)
        if abs(val) <= tol_g:
            if not 0.0 < lam < search_cap:
                return None
            half = 0.5 * lam
            envelope = cubic.quartic_bound(half)
            modeled = cubic(half)
            if abs(modeled) > envelope and (modeled < 0) == (H_k < 0):
                return lam, curve  # sign certified without another solve
            probe = curve.g(half)
            if probe != 0.0 and (probe < 0) != (H_k < 0):
                return None
            return lam, curve
        if slope == 0.0:
            return None
        lam -= val / slope
        if not (0.0 < lam < search_cap):
            return None
    return None


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
    step lambda = 0, z_next = z_k.
    """
    if opts is None:
        raise ParameterError("step needs StepOptions with bounds and constants")
    if direction not in ("forward", "backward"):
        raise ParameterError(f"direction must be forward or backward, got {direction}")
    sign = 1.0 if direction == "forward" else -1.0

    cubic = cubic_model(model, z_k, opts.constants, psi_step=opts.psi_step)
    region = classify_region(cubic)
    if region.tag == "degenerate":
        raise StepNonexistenceError(
            "degenerate point: psi and psi' both vanish; no multiplier window",
            prediction=None,
        )
    prediction = predict_roots(region, cubic, opts.constants, shrink=opts.shrink, tol_g=opts.tol_g)
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
                model, z_k, cap, cubic, hint, opts.tol_g, opts.solver_tol
            )
        except (NonconvergenceError, LinearSolveError):
            got = None
        if got is not None:
            lam, curve = got
            mid = curve.midpoint(lam)
            z_next = ExtendedState(2.0 * mid - z_k.coords, z_k.n)
            return StepResult(
                lam=lam,
                z_next=z_next,
                z_mid=ExtendedState(mid, z_k.n),
                prediction=prediction,
                fixed_point=False,
                took_ghost=False,
                ghost_alongside=False,
                scanned=False,
                beyond_window=lam > prediction.capital_lambda,
            )

    roots = solve_roots(
        model,
        z_k,
        prediction,
        tol_g=opts.tol_g,
        tol_lambda=opts.tol_lambda,
        solver_tol=opts.solver_tol,
        scan_points=opts.scan_points,
        extend_to=extend_to,
        extend_sides="pos" if sign > 0 else "neg",
    )

    regular = [r for r in roots.roots if not r.is_ghost and r.lam * sign > 0]
    ghost = [r for r in roots.roots if r.is_ghost and r.lam * sign > 0]
    side_verdict = prediction.pos_interval if sign > 0 else prediction.neg_interval

    chosen = None
    took_ghost = False
    if opts.policy == "follow-ghost" and ghost:
        chosen = min(ghost, key=lambda r: abs(r.lam))
        took_ghost = True
    elif regular:
        chosen = min(regular, key=lambda r: abs(r.lam))
    elif ghost:
        chosen = min(ghost, key=lambda r: abs(r.lam))
        took_ghost = True

    if chosen is None:
        if roots.lambda_zero is not None:
            return StepResult(
                lam=0.0,
                z_next=z_k,
                z_mid=z_k,
                prediction=prediction,
                fixed_point=True,
                took_ghost=False,
                ghost_alongside=False,
                scanned=False,
                beyond_window=False,
            )
        searched = (
            f"searched up to {extend_to:.3g}" if extend_to is not None else
            f"within Lambda={prediction.capital_lambda:.3g}"
        )
        raise StepNonexistenceError(
            f"no {direction} multiplier {searched} ({prediction.case_label})",
            prediction=prediction,
        )

    mid_arr, _, _ = solve_midpoint_coords(
        model, chosen.lam, z_k.coords, tol=opts.solver_tol
    )
    z_next = ExtendedState(2.0 * mid_arr - z_k.coords, z_k.n)
    return StepResult(
        lam=chosen.lam,
        z_next=z_next,
        z_mid=ExtendedState(mid_arr, z_k.n),
        prediction=prediction,
        fixed_point=False,
        took_ghost=took_ghost,
        ghost_alongside=bool(ghost) and not took_ghost,
        scanned=chosen.in_window and side_verdict == INDETERMINATE,
        beyond_window=not chosen.in_window,
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
    forward multiplier exists (terminated), or once the vertex time passes
    t_stop.
    """
    if n_steps < 1:
        raise ParameterError(f"need n_steps >= 1, got {n_steps}")
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
            label = exc.prediction.case_label if exc.prediction is not None else "degenerate"
            traj.events.append(TrajectoryEvent(k, "terminated", label))
            break
        if result.fixed_point:
            traj.events.append(
                TrajectoryEvent(k, "fixed-point", result.prediction.case_label)
            )
            break
        if result.ghost_alongside:
            traj.events.append(
                TrajectoryEvent(k, "bifurcation", result.prediction.case_label)
            )
        if result.took_ghost:
            traj.events.append(
                TrajectoryEvent(k, "ghost-taken", result.prediction.case_label)
            )
        if result.scanned:
            traj.events.append(
                TrajectoryEvent(k, "prediction-indeterminate", result.prediction.case_label)
            )
        elif result.beyond_window and not noted_beyond_window:
            # noted once: multipliers past Lambda_k have no uniqueness backing
            noted_beyond_window = True
            traj.events.append(
                TrajectoryEvent(
                    k,
                    "prediction-indeterminate",
                    f"multiplier beyond case-table window ({result.prediction.case_label})",
                )
            )
        traj.multipliers.append(result.lam)
        traj.midpoints.append(result.z_mid)
        traj.vertices.append(result.z_next)
        z = result.z_next
        lam_prev2, lam_prev = lam_prev, result.lam
        if t_stop is not None and z.t >= t_stop:
            break
    return traj


def classify_vertex(
    model: HamiltonianModel,
    z0: ExtendedState,
    bounds: RegionBounds,
    constants: DerivedConstants,
    shrink: float = 0.9,
    tol_g: float = 1e-12,
    psi_step: Optional[float] = None,
) -> VertexClass:
    """Classify what kind of vertex z0 can be, from the case tables alone.

    No root solving happens here: only the ratio windows quantified by the
    existence/uniqueness cases.  Points outside every quantified window come
    back indeterminate; psi = psi' = 0 is degenerate.
    """
    cubic = cubic_model(model, z0, constants, psi_step=psi_step)
    return case_table_vertex(cubic, classify_region(cubic), constants, shrink, tol_g)


def case_table_vertex(
    cubic: CubicModel,
    region: Region,
    constants: DerivedConstants,
    shrink: float = 0.9,
    tol_g: float = 1e-12,
) -> VertexClass:
    """The vertex class the case tables give a cubic model in its region."""
    if region.tag == "degenerate":
        return VertexClass("degenerate", None, None, None, region.tag, "degenerate")
    prediction = predict_roots(region, cubic, constants, shrink=shrink, tol_g=tol_g)
    lam_cap = prediction.capital_lambda
    r = prediction.ratio

    if region.tag == "I":
        if prediction.zero_root:
            kind = "fixed-point"
        elif r < 0 or r > prediction.thresholds["none_above"]:
            kind = "none"
        elif r < prediction.thresholds["exists_below"]:
            kind = "pass-through"
        else:
            kind = "indeterminate"
        return VertexClass(kind, r, "H/psi", lam_cap, region.tag, prediction.case_label)

    if region.tag == "II":
        S = prediction.S_k
        if S < GHOST_S_EDGE:
            # behaves like the large-psi cases: no ghost zone in the window
            if prediction.zero_root:
                kind = "fixed-point"
            elif r < 0:
                kind = "none"
            elif (
                r < prediction.thresholds["neg_side_exists_below"]
                and r < prediction.thresholds["pos_side_exists_below"]
            ):
                kind = "pass-through"
            else:
                kind = "indeterminate"
        elif S > 6.0:
            if prediction.zero_root:
                kind = "bifurcates"  # fixed point plus a ghost branch
            elif r < 0:
                kind = (
                    "begins-or-ends"
                    if r > prediction.thresholds["ghost_exists_above"]
                    else "indeterminate"
                )
            elif (
                r < prediction.thresholds["neg_side_exists_below"]
                and r < prediction.thresholds["pos_side_exists_below"]
            ):
                kind = "bifurcates"  # regular pair plus a ghost branch
            else:
                kind = "indeterminate"
        else:
            kind = "indeterminate"  # 6/5 <= S <= 6: outside the quantified windows
        return VertexClass(kind, r, "H/psi", lam_cap, region.tag, prediction.case_label)

    # region III
    if prediction.zero_root:
        kind = "fixed-point"
    elif abs(r) > prediction.thresholds["none_above"]:
        kind = "none"
    elif 0 < abs(r) < prediction.thresholds["exists_below"]:
        kind = "begins-or-ends"
    else:
        kind = "indeterminate"
    return VertexClass(kind, r, "H/psi_prime", lam_cap, region.tag, prediction.case_label)


def symplectic_defect(
    model: HamiltonianModel,
    z: ExtendedState,
    lam: float,
    fd_step: float = 1e-6,
    solver_tol: float = 1e-13,
) -> float:
    """||D^T J D - J||_F for the fixed-lambda midpoint map at z.

    D is the central-difference Jacobian of z -> 2 z_bar(lambda, z) - z.
    """
    z_arr = z.coords if isinstance(z, ExtendedState) else np.asarray(z, dtype=float)
    dim = z_arr.size

    def the_map(x):
        zbar, _, _ = solve_midpoint_coords(model, lam, x, tol=solver_tol)
        return 2.0 * zbar - x

    cols = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = fd_step
        cols.append((the_map(z_arr + e) - the_map(z_arr - e)) / (2.0 * fd_step))
    D = np.column_stack(cols)
    # row by row, v^T J = -(J v)^T; so D^T J = -apply_J(D^T) and J = -apply_J(I)
    return float(np.linalg.norm(-apply_J(D.T) @ D + apply_J(np.eye(dim))))


def conservation_report(
    model: HamiltonianModel,
    trajectory: DTHTrajectory,
    fd_step: float = 1e-6,
    solver_tol: float = 1e-13,
    defect_stride: int = 1,
) -> ConservationReport:
    """Energy, conjugate-momentum and symplecticity diagnostics for a run.

    The defect is measured per step at the vertex with that step's frozen
    multiplier; ``defect_stride`` subsamples long runs.
    """
    if not trajectory.vertices:
        raise ParameterError("conservation report needs a nonempty trajectory")
    energy = [abs(eval_value(model, zb.coords)) for zb in trajectory.midpoints]
    wp = [abs(b.wp - a.wp) for a, b in zip(trajectory.vertices, trajectory.vertices[1:])]
    defects = []
    for k in range(0, len(trajectory.multipliers), max(1, defect_stride)):
        defects.append(
            symplectic_defect(
                model,
                trajectory.vertices[k],
                trajectory.multipliers[k],
                fd_step=fd_step,
                solver_tol=solver_tol,
            )
        )
    return ConservationReport(
        max_energy_residual=max(energy) if energy else 0.0,
        max_wp_drift=max(wp) if wp else 0.0,
        max_symplectic_defect=max(defects) if defects else 0.0,
        symplectic_defects=tuple(defects),
    )


def choose_conjugate_momentum(
    model: HamiltonianModel,
    q0,
    t0: float,
    p0,
    lambda_target: float,
    solver_tol: float = 1e-13,
) -> float:
    """Pick wp0 so the first forward multiplier lands near lambda_target.

    The cubic model's leading balance H(z0) = psi(z0) lambda^2 / 8 fixes wp0
    to first order; one secant correction against the actually solved
    multiplier tightens it.  Needs psi(z0) != 0 (away from the vanishing
    curves; near them use the region-III analysis instead).
    """
    if not lambda_target > 0:
        raise ParameterError("lambda_target must be positive")

    def make_state(wp):
        return ExtendedState.from_parts(q0, t0, p0, wp)

    def balance(wp):
        z = make_state(wp)
        fields = sample_fields(model, z)
        return fields.H - fields.psi * lambda_target**2 / 8.0, fields.psi

    # secant solve of the leading-order balance (exact in one step for lifts,
    # where H is affine in wp with unit slope)
    wp_a, wp_b = 0.0, 1.0
    fa, _ = balance(wp_a)
    fb, psi0 = balance(wp_b)
    if abs(psi0) < 1e-12:
        raise UnsupportedRegionError(
            "psi vanishes at the requested point; conjugate-momentum completion "
            "is undefined (region III applies)"
        )
    wp = wp_b
    f = fb
    for _ in range(50):
        if fb == fa:
            break
        wp = wp_b - fb * (wp_b - wp_a) / (fb - fa)
        f, _ = balance(wp)
        if abs(f) <= 1e-14 * (1.0 + abs(wp)):
            break
        wp_a, fa = wp_b, fb
        wp_b, fb = wp, f

    # one secant refinement on the actually solved forward multiplier
    z = make_state(wp)
    fields = sample_fields(model, z)
    curve = ConstraintCurve(model, z, tol=solver_tol)
    lam = lambda_target
    for _ in range(20):
        val, slope = curve.g_and_derivative(lam)
        if abs(val) <= 1e-13 or slope == 0.0:
            break
        nxt = lam - val / slope
        if not (0.0 < nxt < 4.0 * lambda_target):
            break
        lam = nxt
    # dH/dwp is 1 for lifts; read it off the gradient for custom models
    dH_dwp = float(eval_gradient(model, z.coords)[-1])
    if dH_dwp == 0.0:
        return float(wp)
    return float(wp + fields.psi * (lambda_target**2 - lam**2) / (8.0 * dH_dwp))


def interpolate_at_time(trajectory: DTHTrajectory, t: float) -> ExtendedState:
    """State at time t on the piecewise-linear trajectory (exact on segments)."""
    verts = trajectory.vertices
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
