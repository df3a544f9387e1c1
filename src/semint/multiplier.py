"""Existence, uniqueness and numerical solution of the Lagrange multipliers.

Points split into three regions by the curvature scalars at z_k:

    region I    |psi_k| large:  (psi'_k)^2 <= 24 K |psi_k|
    region II   |psi_k| small but nonzero:  (psi'_k)^2 > 24 K |psi_k|
    region III  psi_k = 0, psi'_k != 0

Each region has its own existence/uniqueness case table (labelled EU_1,
EU_2, EU_3 with roman-numeral cases); ``predict_roots`` evaluates the table
and ``solve_roots`` searches the intervals the table declares monotone.  In
region II the search runs in the rescaled variable s = -(psi'_k/psi_k) lambda
where the table thresholds are stated, with S_k = |psi'_k/psi_k| Lambda_k.
Roots with |s| > 6/5 are ghost multipliers: they do not vanish as
H_k/psi_k -> 0+ and make trajectories bifurcate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .bounds import DerivedConstants, RegionBounds
from .constraint import ConstraintCurve, CubicModel
from .errors import (
    LinearSolveError,
    NonconvergenceError,
    ParameterError,
    PreconditionError,
    UnsupportedRegionError,
)
from .extphase import ExtendedState, HamiltonianModel

__all__ = [
    "Region",
    "RootPrediction",
    "MultiplierSet",
    "GhostReport",
    "classify_region",
    "capital_lambda",
    "predict_roots",
    "solve_roots",
    "ghost_check",
    "EXISTS_UNIQUE",
    "EXISTS",
    "NONE",
    "INDETERMINATE",
]

EXISTS_UNIQUE = "exists-unique"
EXISTS = "exists"
NONE = "none"
INDETERMINATE = "indeterminate"

GHOST_S_EDGE = 6.0 / 5.0


@dataclass(frozen=True)
class Region:
    """Region tag with the scalars and thresholds that produced it."""

    tag: str  # "I" | "II" | "III" | "degenerate"
    psi_k: float
    psi_prime_k: float
    threshold: float  # 24 K |psi_k|
    tau_psi: float
    tau_psi_prime: float


@dataclass(frozen=True)
class RootPrediction:
    """Theorem-backed verdicts for the multiplier intervals at one point.

    ``neg_interval`` / ``pos_interval`` cover lambda in (-Lambda, 0) and
    (0, Lambda); ``ghost_verdict`` covers the ghost zone |s| > 6/5 in region
    II.  ``zero_root`` says lambda = 0 solves the constraint (H_k = 0 within
    tolerance).  Ratios falling between a guaranteed-existence and a
    guaranteed-nonexistence threshold come back indeterminate.
    """

    region: Region
    case_label: str
    neg_interval: str
    pos_interval: str
    ghost_verdict: str
    zero_root: bool
    capital_lambda: float
    S_k: Optional[float]
    ghost_expected: bool
    ratio: float
    thresholds: dict = field(default_factory=dict)


@dataclass
class RootRecord:
    lam: float
    residual: float
    interval: tuple[float, float]
    provenance: str  # "theorem" | "scan"
    is_ghost: bool
    s: Optional[float] = None
    in_window: bool = True  # inside [-Lambda_k, Lambda_k]


@dataclass
class MultiplierSet:
    """Roots of g(., z_k) found in the search window.

    lambda_minus / lambda_plus are the regular (non-ghost) roots of each
    sign closest to zero; lambda_zero is 0.0 when H_k vanished within
    tol_g; lambda_ghost is the smallest-magnitude ghost root.  ``roots``
    keeps every record including residuals and provenance; ``unsearched``
    lists intervals skipped because the midpoint solve failed there.
    """

    lambda_minus: Optional[float] = None
    lambda_plus: Optional[float] = None
    lambda_ghost: Optional[float] = None
    lambda_zero: Optional[float] = None
    roots: list[RootRecord] = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    brackets: list[tuple[float, float, str]] = field(default_factory=list)
    unsearched: list[tuple[float, float, str]] = field(default_factory=list)


def classify_region(
    cubic: CubicModel,
    tau_psi: Optional[float] = None,
    tau_psi_prime: Optional[float] = None,
) -> Region:
    """Assign a region tag with explicit numeric gates for the zero tests.

    The exact condition psi_k = 0 needs a tolerance in floating point; the
    default scales with how much psi can change over one multiplier window,
    tau_psi = 1e-9 (1 + |psi'_k| lambda_delta).
    """
    psi, psip = cubic.psi_k, cubic.psi_prime_k
    ld = cubic.lambda_delta if np.isfinite(cubic.lambda_delta) else 1.0
    if tau_psi is None:
        tau_psi = 1e-9 * (1.0 + abs(psip) * ld)
    if tau_psi_prime is None:
        tau_psi_prime = 1e-9 * (1.0 + abs(psi))
    threshold = 24.0 * cubic.K * abs(psi)
    if abs(psi) > tau_psi:
        tag = "I" if psip * psip <= threshold else "II"
    elif abs(psip) > tau_psi_prime:
        tag = "III"
    else:
        tag = "degenerate"
    return Region(
        tag=tag,
        psi_k=psi,
        psi_prime_k=psip,
        threshold=threshold,
        tau_psi=tau_psi,
        tau_psi_prime=tau_psi_prime,
    )


def capital_lambda(
    region: Region,
    cubic: CubicModel,
    constants: DerivedConstants,
    shrink: float = 0.9,
) -> float:
    """Concrete multiplier search radius Lambda_k.

    The case tables hold for any Lambda strictly inside
        region I:        min(sqrt(|psi_k| / 96K), lambda_delta)
        regions II, III: min(|psi'_k| / 48K,      lambda_delta)
    so ``shrink`` < 1 picks a definite value inside the open interval.
    """
    if not 0.0 < shrink < 1.0:
        raise ParameterError(f"shrink must lie in (0, 1), got {shrink}")
    K = cubic.K
    if region.tag == "I":
        cap = math.sqrt(abs(region.psi_k) / (96.0 * K)) if K > 0 else np.inf
    elif region.tag in ("II", "III"):
        cap = abs(region.psi_prime_k) / (48.0 * K) if K > 0 else np.inf
    else:
        raise UnsupportedRegionError(
            "no multiplier window at a degenerate point (psi and psi' both vanish)"
        )
    return shrink * min(cap, constants.lambda_delta)


def predict_roots(
    region: Region,
    cubic: CubicModel,
    constants: DerivedConstants,
    shrink: float = 0.9,
    tol_g: float = 1e-12,
) -> RootPrediction:
    """Evaluate the existence/uniqueness case table for one point."""
    lam_cap = capital_lambda(region, cubic, constants, shrink=shrink)
    H = cubic.H_k
    psi, psip = region.psi_k, region.psi_prime_k
    zero_root = abs(H) <= tol_g

    if region.tag == "I":
        return _predict_region1(region, H, psi, lam_cap, zero_root, tol_g)
    if region.tag == "II":
        return _predict_region2(region, H, psi, psip, lam_cap, zero_root, tol_g)
    if region.tag == "III":
        return _predict_region3(region, H, psip, lam_cap, zero_root, tol_g)
    raise UnsupportedRegionError("cannot predict roots at a degenerate point")


def _predict_region1(region, H, psi, lam_cap, zero_root, tol_g):
    r = H / psi
    lo = (3.0 / 32.0) * lam_cap**2
    hi = (5.0 / 32.0) * lam_cap**2
    thresholds = {"exists_below": lo, "none_above": hi, "tol_g": tol_g}
    if zero_root:
        label, neg, pos = "EU_1(ii)", NONE, NONE
    elif r < 0:
        label, neg, pos = "EU_1(i)", NONE, NONE
    elif r < lo:
        label, neg, pos = "EU_1(iii)", EXISTS_UNIQUE, EXISTS_UNIQUE
    elif r > hi:
        label, neg, pos = "EU_1(iv)", NONE, NONE
    else:
        label, neg, pos = "EU_1(indeterminate)", INDETERMINATE, INDETERMINATE
    return RootPrediction(
        region=region,
        case_label=label,
        neg_interval=neg,
        pos_interval=pos,
        ghost_verdict="not-applicable",
        zero_root=zero_root,
        capital_lambda=lam_cap,
        S_k=None,
        ghost_expected=False,
        ratio=r,
        thresholds=thresholds,
    )


def _predict_region2(region, H, psi, psip, lam_cap, zero_root, tol_g):
    r = H / psi
    S = abs(psip / psi) * lam_cap
    ratio2 = (psi / psip) ** 2
    t_neg_side = lam_cap**2 * (6.0 + S) / 48.0      # s in (-S, 0) exists below this
    t_pos_small = lam_cap**2 * (2.0 - S) / 16.0     # s in (0, S) exists below this, S < 6/5
    t_pos_large = (9.0 / 125.0) * ratio2            # s in [0, 6/5) exists below this, S >= 6/5
    t_none = (2.0 / 3.0) * ratio2                   # no root in (0, S) above this
    t_ghost_neg = lam_cap**2 * (6.0 - S) / 48.0     # ghost exists for r above this (S > 6)
    thresholds = {
        "neg_side_exists_below": t_neg_side,
        "pos_side_exists_below": t_pos_small if S < GHOST_S_EDGE else t_pos_large,
        "pos_side_none_above": t_none,
        "ghost_exists_above": t_ghost_neg,
        "tol_g": tol_g,
    }

    # verdicts for the s-intervals, then mapped onto lambda signs
    cases = []
    if zero_root:
        s_neg, s_pos = NONE, NONE
        cases.append("ii")
        if S >= 6.0:
            ghost = EXISTS
            cases.append("vi.b")
        elif S > GHOST_S_EDGE:
            # (ii) only covers (-S, 2); nothing is known past s = 2
            ghost = INDETERMINATE if S > 2.0 else NONE
        else:
            ghost = "not-applicable"
    elif r < 0:
        s_neg, s_pos = NONE, NONE
        cases.append("i")
        if S > 6.0 and r > t_ghost_neg:
            ghost = EXISTS
            cases.append("iii")
        elif S > 2.0:
            ghost = INDETERMINATE
        else:
            ghost = NONE if S > GHOST_S_EDGE else "not-applicable"
    else:
        s_neg = EXISTS_UNIQUE if r < t_neg_side else INDETERMINATE
        if s_neg == EXISTS_UNIQUE:
            cases.append("iv")
        if S < GHOST_S_EDGE:
            if r < t_pos_small:
                s_pos = EXISTS_UNIQUE
                cases.append("v")
            elif r > t_none:
                s_pos = NONE
                cases.append("vii")
            else:
                s_pos = INDETERMINATE
            ghost = "not-applicable"
        else:
            if r < t_pos_large:
                s_pos = EXISTS_UNIQUE
                cases.append("vi.a")
            elif r > t_none:
                s_pos = NONE
                cases.append("vii")
            else:
                s_pos = INDETERMINATE
            if r > t_none:
                ghost = NONE
            elif S >= 6.0 and r < t_pos_large:
                ghost = EXISTS
                cases.append("vi.b")
            else:
                ghost = INDETERMINATE

    label = "EU_2(" + (",".join(cases) if cases else "indeterminate") + ")"
    # s > 0 corresponds to lambda = -(psi/psip) s
    c = -psi / psip
    if c > 0:
        pos_iv, neg_iv = s_pos, s_neg
    else:
        pos_iv, neg_iv = s_neg, s_pos
    return RootPrediction(
        region=region,
        case_label=label,
        neg_interval=neg_iv,
        pos_interval=pos_iv,
        ghost_verdict=ghost,
        zero_root=zero_root,
        capital_lambda=lam_cap,
        S_k=S,
        ghost_expected=ghost == EXISTS,
        ratio=r,
        thresholds=thresholds,
    )


def _predict_region3(region, H, psip, lam_cap, zero_root, tol_g):
    r = H / psip
    lo = lam_cap**3 / 48.0
    hi = lam_cap**3 / 16.0
    thresholds = {"exists_below": lo, "none_above": hi, "tol_g": tol_g}
    if zero_root:
        label, neg, pos = "EU_3(iii)", NONE, NONE
    elif 0 < r < lo:
        label, neg, pos = "EU_3(ii)", NONE, EXISTS_UNIQUE
    elif -lo < r < 0:
        label, neg, pos = "EU_3(i)", EXISTS_UNIQUE, NONE
    elif abs(r) > hi:
        label, neg, pos = "EU_3(iv)", NONE, NONE
    else:
        label, neg, pos = "EU_3(indeterminate)", INDETERMINATE, INDETERMINATE
    return RootPrediction(
        region=region,
        case_label=label,
        neg_interval=neg,
        pos_interval=pos,
        ghost_verdict="not-applicable",
        zero_root=zero_root,
        capital_lambda=lam_cap,
        S_k=None,
        ghost_expected=False,
        ratio=r,
        thresholds=thresholds,
    )


def _bisect_then_polish(curve, a, b, fa, fb, tol_lambda, tol_g, max_newton=30):
    """Bisection to width tol_lambda, then Newton polish to |g| <= tol_g.

    Assumes fa and fb straddle zero. Returns (lambda, residual) or None if
    the polish cannot push the residual under tol_g (flat curve).
    """
    lo, hi, flo = a, b, fa
    while hi - lo > tol_lambda:
        mid = 0.5 * (lo + hi)
        fm = curve.g(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    val, slope = curve.g_and_derivative(lam)
    for _ in range(max_newton):
        if abs(val) <= tol_g:
            return lam, abs(val)
        if slope == 0.0:
            break
        step = val / slope
        nxt = lam - step
        if not (a - tol_lambda <= nxt <= b + tol_lambda):
            break
        lam = nxt
        val, slope = curve.g_and_derivative(lam)
    # every returned root must honor the residual contract
    return (lam, abs(val)) if abs(val) <= tol_g else None


def _search_monotone(curve, a, b, tol_lambda, tol_g):
    """Endpoint sign test on a monotone interval, then bisect + polish."""
    fa, fb = curve.g(a), curve.g(b)
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    if (fa < 0) == (fb < 0):
        return None
    return _bisect_then_polish(curve, a, b, fa, fb, tol_lambda, tol_g)


def _scan_interval(curve, a, b, points, tol_lambda, tol_g):
    """Dense scan for sign changes, bisecting and polishing each bracket."""
    xs = np.linspace(a, b, points)
    vals = curve.g_grid(xs).tolist()
    found = []
    for i in range(len(xs) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            found.append((xs[i], 0.0))
            continue
        if (va < 0) != (vb < 0):
            hit = _bisect_then_polish(curve, xs[i], xs[i + 1], va, vb, tol_lambda, tol_g)
            if hit is not None:
                found.append(hit)
    return found


def solve_roots(
    model: HamiltonianModel,
    z_k: ExtendedState,
    prediction: RootPrediction,
    tol_g: float = 1e-12,
    tol_lambda: float = 1e-9,
    solver_tol: float = 1e-13,
    scan_points: int = 256,
    extend_to: Optional[float] = None,
    extend_sides: str = "both",
) -> MultiplierSet:
    """Find the multipliers the prediction allows inside [-Lambda, Lambda].

    Intervals with a ``none`` verdict are trusted and skipped.  Indeterminate
    intervals fall back to a dense scan (provenance "scan" on anything found
    there).  In region II the search runs in s-units; the unguaranteed band
    s in (6/5, 6) is always scanned rather than bracket-searched, and roots
    beyond |s| = 6/5 are recorded as ghosts.

    By default the search stops at the case-table window.  ``extend_to``
    additionally scans the annulus between Lambda and the given radius
    (at most the decoupling radius makes sense); anything found there is
    recorded with in_window=False and provenance "scan" since no uniqueness
    statement covers it.  ``extend_sides`` limits the extension to "pos" or
    "neg" multipliers.
    """
    curve = ConstraintCurve(model, z_k, tol=solver_tol)
    lam_cap = prediction.capital_lambda
    result = MultiplierSet()
    if prediction.zero_root:
        result.lambda_zero = 0.0
        result.residuals["zero"] = abs(curve.g(0.0))

    region = prediction.region
    records: list[RootRecord] = []

    if region.tag in ("I", "III"):
        for side, verdict in (("neg", prediction.neg_interval), ("pos", prediction.pos_interval)):
            a, b = (-lam_cap, 0.0) if side == "neg" else (0.0, lam_cap)
            if verdict == NONE:
                continue
            try:
                if verdict == EXISTS_UNIQUE:
                    result.brackets.append((a, b, "theorem"))
                    hit = _search_monotone(curve, a, b, tol_lambda, tol_g)
                    if hit is None:
                        hits = _scan_interval(curve, a, b, scan_points, tol_lambda, tol_g)
                        for lam, res in hits:
                            records.append(RootRecord(lam, res, (a, b), "scan", False))
                    else:
                        records.append(RootRecord(hit[0], hit[1], (a, b), "theorem", False))
                else:  # indeterminate between the theorem thresholds
                    result.brackets.append((a, b, "scan"))
                    for lam, res in _scan_interval(curve, a, b, scan_points, tol_lambda, tol_g):
                        records.append(RootRecord(lam, res, (a, b), "scan", False))
            except (NonconvergenceError, LinearSolveError):
                result.unsearched.append((a, b, "midpoint solve failed"))
    elif region.tag == "II":
        c = -region.psi_k / region.psi_prime_k  # lambda = c * s
        S = prediction.S_k

        def s_curve_root(sa, sb, verdict, label):
            la, lb = sorted((c * sa, c * sb))
            try:
                if verdict == EXISTS_UNIQUE:
                    result.brackets.append((la, lb, "theorem"))
                    hit = _search_monotone(curve, la, lb, tol_lambda, tol_g)
                    if hit is not None:
                        return [(hit, "theorem")]
                    # endpoint test can lose a guaranteed root to float noise
                result.brackets.append((la, lb, "scan"))
                return [
                    (hit, "scan")
                    for hit in _scan_interval(curve, la, lb, scan_points, tol_lambda, tol_g)
                ]
            except (NonconvergenceError, LinearSolveError):
                result.unsearched.append((la, lb, f"midpoint solve failed in {label}"))
                return []

        # near zone: s in (-S, 0) and (0, min(6/5, S))
        if prediction.neg_interval != NONE or prediction.pos_interval != NONE:
            near_hi = min(GHOST_S_EDGE, S)
            sneg_verdict = prediction.neg_interval if c > 0 else prediction.pos_interval
            spos_verdict = prediction.pos_interval if c > 0 else prediction.neg_interval
            if sneg_verdict != NONE:
                for hit, prov in s_curve_root(-S, 0.0, sneg_verdict, "s<0"):
                    records.append(
                        RootRecord(hit[0], hit[1], tuple(sorted((c * -S, 0.0))), prov, False, s=hit[0] / c)
                    )
            if spos_verdict != NONE:
                for hit, prov in s_curve_root(0.0, near_hi, spos_verdict, "s>0"):
                    records.append(
                        RootRecord(hit[0], hit[1], tuple(sorted((0.0, c * near_hi))), prov, False, s=hit[0] / c)
                    )
        # ghost zone: s in (6/5, S), scanned (monotonicity only holds past 6)
        if S > GHOST_S_EDGE and prediction.ghost_verdict in (EXISTS, INDETERMINATE):
            la, lb = sorted((c * GHOST_S_EDGE, c * S))
            result.brackets.append((la, lb, "ghost-scan"))
            try:
                for lam, res in _scan_interval(curve, la, lb, scan_points, tol_lambda, tol_g):
                    records.append(
                        RootRecord(lam, res, (la, lb), "scan", True, s=lam / c)
                    )
            except (NonconvergenceError, LinearSolveError):
                result.unsearched.append((la, lb, "midpoint solve failed in ghost zone"))
    else:
        raise UnsupportedRegionError("solve_roots needs a non-degenerate prediction")

    if extend_to is not None and extend_to > lam_cap:
        annuli = []
        if extend_sides in ("both", "neg"):
            annuli.append((-extend_to, -lam_cap))
        if extend_sides in ("both", "pos"):
            annuli.append((lam_cap, extend_to))
        for a, b in annuli:
            result.brackets.append((a, b, "extension-scan"))
            try:
                for lam, res in _scan_interval(curve, a, b, scan_points, tol_lambda, tol_g):
                    records.append(
                        RootRecord(lam, res, (a, b), "scan", False, in_window=False)
                    )
            except (NonconvergenceError, LinearSolveError):
                result.unsearched.append((a, b, "midpoint solve failed in extension"))

    # dedupe near-identical roots (a scan can bracket the same zero twice)
    records.sort(key=lambda rec: rec.lam)
    deduped: list[RootRecord] = []
    for rec in records:
        if deduped and abs(rec.lam - deduped[-1].lam) <= max(tol_lambda, 1e-14):
            continue
        deduped.append(rec)
    result.roots = deduped

    regulars = [r for r in deduped if not r.is_ghost]
    ghosts = [r for r in deduped if r.is_ghost]
    neg = [r for r in regulars if r.lam < 0]
    pos = [r for r in regulars if r.lam > 0]
    if neg:
        best = max(neg, key=lambda r: r.lam)
        result.lambda_minus = best.lam
        result.residuals["minus"] = best.residual
    if pos:
        best = min(pos, key=lambda r: r.lam)
        result.lambda_plus = best.lam
        result.residuals["plus"] = best.residual
    if ghosts:
        best = min(ghosts, key=lambda r: abs(r.lam))
        result.lambda_ghost = best.lam
        result.residuals["ghost"] = best.residual
    return result


@dataclass(frozen=True)
class GhostReport:
    """Diagnostics along a sequence approaching the constraint manifold."""

    psi_min: float
    ghost_bound: float
    pm_magnitudes: tuple[float, ...]
    ghost_magnitudes: tuple[float, ...]
    final_pm: float
    pm_vanishing: bool
    ghosts_detected: int
    ghosts_bounded_away: bool


def ghost_check(
    multiplier_sets: Sequence[MultiplierSet],
    cubics: Sequence[CubicModel],
    bounds: RegionBounds,
    ratio_tol: float = 0.0,
) -> GhostReport:
    """Check the ghost dichotomy along a sequence with H_k/psi_k -> 0+.

    The regular multipliers must shrink to zero with the ratio, while every
    detected ghost must stay above (6/5) psi_min / (M1 N1).
    """
    if len(multiplier_sets) != len(cubics) or not cubics:
        raise PreconditionError("need one multiplier set per cubic model, at least one")
    psis = [abs(c.psi_k) for c in cubics]
    if min(psis) == 0.0:
        raise PreconditionError("sequence touches psi = 0; ghost bound undefined")
    ratios = [c.H_k / c.psi_k for c in cubics]
    if any(r < -ratio_tol for r in ratios):
        raise PreconditionError("sequence has H_k/psi_k < 0; expected approach from above")
    if ratios[-1] > ratios[0] and len(ratios) > 1:
        raise PreconditionError("sequence ratio H_k/psi_k is not decreasing toward zero")

    psi_min = min(psis)
    denom = bounds.M1 * bounds.N1
    ghost_bound = GHOST_S_EDGE * psi_min / denom if denom > 0 else 0.0

    pm = []
    ghosts = []
    for ms in multiplier_sets:
        mags = [abs(v) for v in (ms.lambda_minus, ms.lambda_plus) if v is not None]
        if ms.lambda_zero is not None:
            mags.append(0.0)
        pm.append(max(mags) if mags else np.nan)
        ghosts.extend(abs(r.lam) for r in ms.roots if r.is_ghost)

    finite = [m for m in pm if np.isfinite(m)]
    final_pm = finite[-1] if finite else np.nan
    pm_vanishing = bool(finite) and final_pm <= min(finite) + 1e-15
    return GhostReport(
        psi_min=psi_min,
        ghost_bound=ghost_bound,
        pm_magnitudes=tuple(pm),
        ghost_magnitudes=tuple(ghosts),
        final_pm=final_pm,
        pm_vanishing=pm_vanishing,
        ghosts_detected=len(ghosts),
        ghosts_bounded_away=all(g > ghost_bound for g in ghosts),
    )
