"""Desk-scale invariant battery behind ``semint verify``.

Each check returns (name, passed, detail).  The battery covers the module
invariants: structure-matrix algebra, field-sample identities, certificate
behavior, psi' and psi_z from Hessian differences against closed forms,
the cubic/derivative error envelopes, monotone-interval soundness,
prediction/solver agreement, the batched dense-scan grid against scalar g,
bracketed-Newton roots against plain bisection, stacked field samples
against scalar ones, trajectory conservation, and time reversal of the
step (backward steps retrace a forward run, hinted and unhinted).
``k_scale`` injects a corrupted quartic constant so callers can confirm the
battery actually bites.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from . import models
from .bounds import derive_constants, estimate_bounds
from .constraint import ConstraintCurve, cubic_model
from .decoupler import kantorovich_report, solve_midpoint_coords
from .extphase import (
    ClassicalModel,
    ExtendedState,
    apply_J,
    autonomize,
    eval_gradient,
    fd_gradient,
    psi_gradient,
    sample_fields,
)
from .multiplier import EXISTS_UNIQUE, NONE, _sign_change_cells, solve_roots
from .trajectory import (
    StepOptions,
    choose_conjugate_momentum,
    classify_vertex,
    conservation_report,
    propagate,
    step,
)

PEND_RADIUS = 2.5
DELTA = 0.5
SAFETY = 1.1


@functools.lru_cache(maxsize=1)
def _pendulum_setup():
    model = models.pendulum()
    center = ExtendedState.from_parts([0.0], 0.0, [0.0], 0.0)
    scaled = estimate_bounds(model, center, PEND_RADIUS, 9).scaled(SAFETY)
    return model, scaled, derive_constants(scaled, DELTA)


def _sample_states(rng, count, box=2.0):
    qs = rng.uniform(-box, box, count)
    ps = rng.uniform(-box, box, count)
    wps = rng.uniform(-1.5, 1.5, count)
    return [ExtendedState.from_parts([q], 0.0, [p], w) for q, p, w in zip(qs, ps, wps)]


def check_structure_matrix(rng):
    for _ in range(50):
        dim = 2 * int(rng.integers(1, 5)) + 2
        v = rng.standard_normal(dim)
        jv = apply_J(v)
        if abs(np.linalg.norm(jv) - np.linalg.norm(v)) > 1e-15 * (1 + np.linalg.norm(v)):
            return False, "J is not an isometry"
        if np.linalg.norm(apply_J(jv) + v) > 1e-15 * (1 + np.linalg.norm(v)):
            return False, "J^2 != -I"
    return True, "J^2 = -I and isometry on 50 random vectors"


def check_field_sample(rng):
    model = models.pendulum()
    worst = 0.0
    for z in _sample_states(rng, 25):
        fields = sample_fields(model, z)
        w = apply_J(fields.grad)
        quad = float(w @ fields.hess @ w)
        worst = max(worst, abs(fields.psi - quad) / (1 + abs(quad)))
        closed = models.pendulum_psi(z.q[0], z.p[0])
        closed_prime = models.pendulum_psi_prime(z.q[0], z.p[0])
        if abs(fields.psi - closed) > 1e-10 * (1 + abs(closed)):
            return False, f"psi mismatch vs closed form at q={z.q[0]:.3f}"
        if abs(fields.psi_prime - closed_prime) > 1e-8 * (1 + abs(closed_prime)):
            return False, f"psi' mismatch vs closed form at q={z.q[0]:.3f}"
    return worst <= 1e-12, f"psi quadratic-form identity, worst rel dev {worst:.2e}"


def check_psi_prime_identity(rng):
    """psi' and psi_z of models without a psi gradient, read off Hessians,
    against closed forms at times t up to 1e3: psi' of the pendulum with its
    analytic psi gradient dropped (-p^3 sin q) and of the oscillator lift
    (0), and psi_z of that pendulum (its analytic psi gradient).  Neither
    lift reads t, so neither may its psi' or psi_z."""
    pendulum = models.pendulum()
    stripped = replace(pendulum, psi_gradient=None)
    worst = 0.0
    for model, closed in ((stripped, models.pendulum_psi_prime), (_oscillator_lift(), lambda q, p: 0.0)):
        for z, t in zip(_sample_states(rng, 25), rng.uniform(0.0, 1e3, 25)):
            z = ExtendedState.from_parts(z.q, t, z.p, z.wp)
            want = closed(z.q[0], z.p[0])
            dev = abs(sample_fields(model, z).psi_prime - want) / (1 + abs(want))
            if not dev <= 1e-8:
                return False, f"psi' mismatch vs closed form on {model.name} at t={t:.1f}, rel dev {dev:.2e}"
            worst = max(worst, dev)
    for z, t in zip(_sample_states(rng, 25), rng.uniform(0.0, 1e3, 25)):
        z = np.array([z.q[0], t, z.p[0], z.wp])
        want = pendulum.psi_gradient(z)
        dev = np.linalg.norm(psi_gradient(stripped, z) - want) / (1 + np.linalg.norm(want))
        if not dev <= 1e-8:
            return False, f"psi_z mismatch vs closed form on pendulum at t={t:.1f}, rel dev {dev:.2e}"
        worst = max(worst, dev)
    return True, f"psi' of two lifts, psi_z of the pendulum, x 25 states, t <= 1e3: worst rel dev {worst:.1e}"


def check_fd_gradient(rng):
    model = models.pendulum()
    z = _sample_states(rng, 1)[0]
    exact = eval_gradient(model, z.coords)
    e1 = np.linalg.norm(fd_gradient(model, z.coords, step=1e-3) - exact)
    e2 = np.linalg.norm(fd_gradient(model, z.coords, step=5e-4) - exact)
    ratio = e1 / e2 if e2 > 0 else np.inf
    return 3.0 < ratio < 5.0, f"halving FD step changed error by {ratio:.2f}x (expect ~4)"


def check_oscillator_midpoint(rng):
    model = models.oscillator(1.0)
    worst = 0.0
    for _ in range(10):
        z = np.array([rng.uniform(-2, 2), 0.0, rng.uniform(-2, 2), rng.uniform(-1, 1)])
        lam = rng.uniform(-0.3, 0.3)
        z_bar, _, _ = solve_midpoint_coords(model, lam, z, tol=1e-13)
        closed = models.oscillator_midpoint(z, lam, 1.0)
        worst = max(worst, float(np.max(np.abs(z_bar - closed))))
    return worst <= 1e-12, f"closed-form midpoint agreement, worst dev {worst:.2e}"


def check_kantorovich(rng):
    model, scaled, constants = _pendulum_setup()
    ld = constants.lambda_delta
    for z in _sample_states(rng, 20, box=PEND_RADIUS - DELTA):
        lam = rng.uniform(-ld, ld)
        report = kantorovich_report(model, lam, z, scaled, delta=DELTA)
        if not report.guaranteed:
            return False, f"certificate not guaranteed at |lambda|={abs(lam):.3f} <= {ld:.3f}"
        z_bar, _, _ = solve_midpoint_coords(model, lam, z.coords, tol=1e-12)
        if np.linalg.norm(z_bar - z.coords) > report.r_minus + 1e-12:
            return False, "midpoint left the certified ball"
    return True, "20/20 certificates guaranteed with solutions inside r_minus"


def check_quartic_bound(rng, k_scale=1.0):
    model, scaled, constants = _pendulum_setup()
    K_inj = constants.K * k_scale
    formula = (scaled.M1**2 * scaled.M2**3 + 2 * constants.gamma_h) / 32.0
    if not abs(K_inj - formula) <= 1e-12 * formula:  # a NaN K fails too
        return False, f"K={K_inj:.4g} disagrees with its defining formula {formula:.4g}"
    ld = constants.lambda_delta
    worst = 0.0
    for z in _sample_states(rng, 50, box=PEND_RADIUS - DELTA):
        lam = rng.uniform(-ld, ld)
        cubic = cubic_model(model, z, constants)
        curve = ConstraintCurve(model, z, tol=1e-13)
        defect = abs(curve.g(lam) - cubic(lam))
        envelope = K_inj * lam**4 + 1e-11
        worst = max(worst, defect / envelope if envelope > 0 else 0.0)
        if not defect <= envelope:
            return False, f"|g - model| = {defect:.2e} exceeds K lam^4 = {envelope:.2e}"
    return True, f"50/50 inside the quartic envelope (worst fill {worst:.1%})"


def check_derivative_bound(rng):
    model, _, constants = _pendulum_setup()
    ld = constants.lambda_delta
    for z in _sample_states(rng, 30, box=PEND_RADIUS - DELTA):
        lam = rng.uniform(-ld, ld)
        cubic = cubic_model(model, z, constants)
        curve = ConstraintCurve(model, z, tol=1e-13)
        _, dg = curve.g_and_derivative(lam)
        defect = abs(dg - cubic.derivative(lam))
        if defect > 4 * constants.K * abs(lam) ** 3 + 1e-10:
            return False, f"derivative defect {defect:.2e} above 4K|lam|^3"
        _, dg0 = curve.g_and_derivative(0.0)
        if abs(dg0) > 1e-12:
            return False, f"dg/dlambda(0) = {dg0:.2e} != 0"
    return True, "30/30 inside the cubic derivative envelope; zero slope at 0"


def check_monotone_intervals(rng):
    model, _, constants = _pendulum_setup()
    for z in _sample_states(rng, 5, box=1.8):
        pred = classify_vertex(model, z, constants)
        if pred.region.tag != "I":
            continue
        lam_cap = pred.capital_lambda
        curve = ConstraintCurve(model, z, tol=1e-13)
        for a, b in ((-lam_cap, 0.0), (0.0, lam_cap)):
            xs = np.linspace(a, b, 128)[1:-1]
            signs = {np.sign(curve.g_and_derivative(x)[1]) for x in xs}
            if len(signs - {0.0}) > 1:
                return False, f"dg/dlambda changes sign inside ({a:.3g}, {b:.3g})"
    return True, "dg/dlambda keeps one sign on each monotone interval (128-pt sampling)"


def check_prediction_consistency(rng):
    model, _, constants = _pendulum_setup()
    agree = 0
    total = 0
    for q in np.linspace(-1.5, 1.5, 4):
        for p in np.linspace(0.4, 1.8, 4):
            base = ExtendedState.from_parts([q], 0.0, [p], 0.0)
            fields = sample_fields(model, base)
            if abs(fields.psi) < 0.3:
                continue
            pred0 = classify_vertex(model, base, constants)
            if pred0.region.tag != "I":
                continue
            lam_cap = pred0.capital_lambda
            for case, ratio in (("exists", 0.5 * 3 / 32), ("none", -0.5)):
                target = ratio * lam_cap**2
                wp = target * fields.psi - (fields.H - base.wp)
                z = ExtendedState.from_parts([q], 0.0, [p], wp)
                pred = classify_vertex(model, z, constants)
                if pred.region.tag != "I":
                    continue
                total += 1
                roots = solve_roots(model, z, pred)
                pos = [r for r in roots.roots if r.lam > 0]
                neg = [r for r in roots.roots if r.lam < 0]
                if case == "exists":
                    ok = (
                        pred.pos_interval == EXISTS_UNIQUE
                        and len(pos) == 1
                        and len(neg) == 1
                    )
                else:
                    curve = ConstraintCurve(model, z, tol=1e-13)
                    vals = np.array([curve.g(x) for x in np.linspace(-lam_cap, lam_cap, 257)])
                    ok = pred.pos_interval == NONE and _sign_change_cells(vals).size == 0
                agree += 1 if ok else 0
    return agree == total and total >= 8, f"{agree}/{total} grid cases agree with the solver"


def _states_with_roots(rng, model, ld):
    """10 seeded pendulum states whose g has sign changes in (-ld, ld) where psi_k > 0."""
    for z in _sample_states(rng, 10, box=PEND_RADIUS - DELTA):
        # move wp so g(0) = H_k puts the sign changes inside the window
        fields = sample_fields(model, z)
        target = fields.psi * rng.uniform(0.0, 1.0) * ld**2 / 8.0
        yield ExtendedState(z.coords + [0.0, 0.0, 0.0, target - fields.H], z.n)


def check_grid_scan(rng):
    model, _, constants = _pendulum_setup()
    ld = constants.lambda_delta
    lams = np.linspace(-ld, ld, 256)
    worst, brackets = 0.0, 0
    for z in _states_with_roots(rng, model, ld):
        curve = ConstraintCurve(model, z, tol=1e-13)
        scalar = np.array([curve.g(lam) for lam in lams])
        batched = ConstraintCurve(model, z, tol=1e-13).g_grid(lams)
        dev = float(np.max(np.abs(batched - scalar) / (1.0 + np.abs(scalar))))
        worst = max(worst, dev)
        if dev > 1e-12:
            return False, f"batched g off the scalar g by {dev:.2e} (relative)"
        cells = _sign_change_cells(scalar)
        if not np.array_equal(_sign_change_cells(batched), cells):
            return False, f"batched and scalar scans bracket different roots at q={z.q[0]:.3f}"
        brackets += cells.size
    return True, (
        f"10 states x 256 lambdas: worst rel dev {worst:.1e}, same {brackets} brackets"
    )


def _bisect(curve, a, b, fa, tol_lambda):
    """Plain bisection of a sign change of g on [a, b] down to width tol_lambda."""
    while b - a > tol_lambda:
        mid = 0.5 * (a + b)
        fm = curve.g(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (fa < 0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def check_root_polish(rng):
    """Bracketed Newton in each sign-change cell against plain bisection.

    The cells come from a scalar g on a grid, so this check and grid-scan
    fail apart.  A root passes when it lies within max(tol_lambda,
    2 tol_g / |g'|) of the bisection's and |g| <= tol_g there.
    """
    model, _, constants = _pendulum_setup()
    tol_g, tol_lambda = StepOptions.tol_g, StepOptions.tol_lambda
    ld = constants.lambda_delta
    lams = np.linspace(-ld, ld, 64).tolist()
    roots, worst = 0, 0.0
    for z in _states_with_roots(rng, model, ld):
        oracle = ConstraintCurve(model, z, tol=1e-13)
        vals = [oracle.g(lam) for lam in lams]
        for i in _sign_change_cells(np.array(vals)):
            a, b, fa, fb = lams[i], lams[i + 1], vals[i], vals[i + 1]
            if fa == 0.0:
                continue
            curve = ConstraintCurve(model, z, tol=1e-13)
            start = a - fa * (b - a) / (fb - fa)
            lam, val = curve.newton(start, a, b, tol_g, 30, tol_lambda=tol_lambda, g_lo=fa)
            slope = curve.derivative(lam)
            allowed = max(tol_lambda, 2.0 * tol_g / abs(slope)) if slope else tol_lambda
            dev = abs(lam - _bisect(oracle, a, b, fa, tol_lambda))
            if not (abs(val) <= tol_g and dev <= allowed):
                return False, (
                    f"root {lam:.12g} is {dev:.2e} off bisection (allowed {allowed:.2e}), "
                    f"|g| = {abs(val):.1e}"
                )
            roots, worst = roots + 1, max(worst, dev / allowed)
    return roots >= 10, f"{roots} roots within tolerance of bisection (worst {worst:.2f} of it)"


def _oscillator_lift():
    """H = wp + (p^2 + omega^2 q^2)/2, omega = 1.3, as an ``autonomize`` lift: the
    classical callables take one state, and psi is differenced (no analytic gradient)."""
    w2 = 1.3 * 1.3

    def value(c):
        return 0.5 * (c[2] * c[2] + w2 * c[0] * c[0])

    def gradient(c):
        return np.array([w2 * c[0], 0.0, c[2]])

    def hessian(c):
        h = np.zeros((3, 3))
        h[0, 0], h[2, 2] = w2, 1.0
        return h

    return autonomize(ClassicalModel(n=1, value=value, gradient=gradient, hessian=hessian,
                                     time_independent=True, name="oscillator-lift"))


def check_stacked_fields(rng):
    """Stacked sample_fields and psi_gradient against the scalar calls, bit for bit.

    The stacked products are exact only while numpy sends every row through
    the BLAS kernel of the per-row product; another numpy build may not.
    """
    rows = 32
    for model in (models.pendulum(), _oscillator_lift()):
        zs = rng.uniform(-2.0, 2.0, size=(rows, model.dim))
        stack = sample_fields(model, zs)
        scalar = [sample_fields(model, z) for z in zs]
        pairs = [(name, getattr(stack, name), [getattr(f, name) for f in scalar])
                 for name in ("H", "grad", "hess", "psi", "psi_prime")]
        pairs.append(("psi_gradient", psi_gradient(model, zs), [psi_gradient(model, z) for z in zs]))
        for name, got, want in pairs:
            if np.asarray(got, dtype=float).tobytes() != np.asarray(want, dtype=float).tobytes():
                return False, f"stacked {name} differs from the scalar calls on {model.name}"
    return True, f"pendulum and oscillator lift x {rows} states: every field bit-identical"


def _pendulum_run():
    """100 criterion-1 pendulum steps on the battery's box: (model, opts, trajectory)."""
    model, scaled, constants = _pendulum_setup()
    wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
    z0 = ExtendedState.from_parts([1.0], 0.0, [0.5], wp0)
    opts = StepOptions(bounds=scaled, constants=constants)
    return model, opts, propagate(model, z0, 100, opts)


def check_trajectory(rng):
    model, _, traj = _pendulum_run()
    if len(traj.multipliers) < 100:
        return False, f"run terminated early at step {len(traj.multipliers)}"
    report = conservation_report(model, traj, defect_stride=20)
    if report.max_energy_residual > 1e-10:
        return False, f"energy residual {report.max_energy_residual:.2e}"
    if report.max_wp_drift > 1e-12:
        return False, f"wp drift {report.max_wp_drift:.2e}"
    for k in (0, len(traj.multipliers) - 1):
        lam = traj.multipliers[k]
        lhs = traj.vertices[k + 1].coords - traj.vertices[k].coords
        rhs = lam * apply_J(eval_gradient(model, traj.midpoints[k].coords))
        if np.linalg.norm(lhs - rhs) > 1e-9:
            return False, f"step identity violated at k={k}"
        mid = 0.5 * (traj.vertices[k].coords + traj.vertices[k + 1].coords)
        if np.linalg.norm(mid - traj.midpoints[k].coords) > 1e-12:
            return False, f"midpoint is not the segment midpoint at k={k}"
    return True, (
        f"100 steps: |H| <= {report.max_energy_residual:.1e}, "
        f"|dwp| <= {report.max_wp_drift:.1e}"
    )


def check_time_reversal(rng):
    """The DTH step is symmetric: if z_{k+1} = 2 z_bar - z_k at lambda_k, then
    z_k = 2 z_bar - z_{k+1} at -lambda_k.  From every 10th vertex z_{k+1} of
    the trajectory-conservation run, a backward step without a hint (the
    full search) and one hinted with -lambda_{k+1} (the fast path) must both
    return -lambda_k within max(tol_lambda, 2 tol_g / |g'|) and z_k within 1e-8.
    """
    model, opts, traj = _pendulum_run()
    lams, worst, moved = traj.multipliers, 0.0, 0.0
    for k in range(0, len(lams) - 1, 10):
        z_next = traj.vertices[k + 1]
        slope = ConstraintCurve(model, z_next, tol=opts.solver_tol).derivative(-lams[k])
        allowed = max(opts.tol_lambda, 2.0 * opts.tol_g / abs(slope)) if slope else opts.tol_lambda
        for how, hint in (("unhinted", None), ("hinted", -lams[k + 1])):
            back = step(model, z_next, "backward", opts, hint=hint)
            gap = abs(back.lam + lams[k])
            dz = float(np.max(np.abs(back.z_next.coords - traj.vertices[k].coords)))
            if not (gap <= allowed and dz <= 1e-8):
                return False, (
                    f"{how} backward step from vertex {k + 1} took {back.lam:.12g} against "
                    f"{-lams[k]:.12g} (gap {gap:.1e}, allowed {allowed:.1e}), |z - z_k| = {dz:.1e}"
                )
            worst, moved = max(worst, gap / allowed), max(moved, dz)
    return True, (
        f"10 vertices x 2 backward steps: worst lambda gap {worst:.2f} of allowed, |z - z_k| <= {moved:.1e}"
    )


def check_free_time(rng):
    model = models.free_time()
    center = ExtendedState.from_parts([0.0], 0.0, [0.0], 0.0)
    raw = estimate_bounds(model, center, 1.0, 5)
    if not (raw.M1 == 1.0 and raw.M2 == 0.0 and raw.gamma_H == 0.0 and raw.N1 == 0.0):
        return False, f"free-time constants not (1, 0, 0, 0, 0): {raw}"
    constants = derive_constants(raw, DELTA)
    if constants.K != 0.0:
        return False, f"free-time K = {constants.K} != 0"
    expect = (1 - (1 - DELTA) ** 2) / 2.0
    if abs(constants.lambda_delta - expect) > 1e-15:
        return False, f"free-time lambda_delta {constants.lambda_delta} != {expect}"
    tag = classify_vertex(model, center, constants).region.tag
    return tag == "degenerate", f"free-time region tag: {tag}"


def run_all(seed: int = 0, k_scale: float = 1.0):
    """Run every check; returns a list of (name, passed, detail)."""
    checks = [
        ("structure-matrix", check_structure_matrix, {}),
        ("field-sample", check_field_sample, {}),
        ("psi-prime-identity", check_psi_prime_identity, {}),
        ("fd-gradient", check_fd_gradient, {}),
        ("oscillator-midpoint", check_oscillator_midpoint, {}),
        ("kantorovich-certificate", check_kantorovich, {}),
        ("quartic-bound", check_quartic_bound, {"k_scale": k_scale}),
        ("derivative-bound", check_derivative_bound, {}),
        ("monotone-intervals", check_monotone_intervals, {}),
        ("prediction-vs-solver", check_prediction_consistency, {}),
        ("grid-scan", check_grid_scan, {}),
        ("root-polish", check_root_polish, {}),
        ("stacked-fields", check_stacked_fields, {}),
        ("trajectory-conservation", check_trajectory, {}),
        ("time-reversal", check_time_reversal, {}),
        ("free-time-trivial", check_free_time, {}),
    ]
    results = []
    for name, fn, kwargs in checks:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = fn(rng, **kwargs)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
