"""Existence, uniqueness and numerical solution of the Lagrange multipliers.

Points split into three regions by the curvature scalars at z_k:

    region I    |psi_k| large:  (psi'_k)^2 <= 24 K |psi_k|
    region II   |psi_k| small but nonzero:  (psi'_k)^2 > 24 K |psi_k|
    region III  psi_k = 0, psi'_k != 0

Each region has its own existence/uniqueness case table (labelled EU_1,
EU_2, EU_3 with roman-numeral cases).  ``predict_roots`` evaluates the table
once, interval verdicts and vertex kind together; ``solve_roots`` walks the
list of search intervals those verdicts give, with safeguarded Newton (no
bisection unless Newton falters) in each sign change.  In region II the
thresholds are stated in the rescaled variable s = -(psi'_k/psi_k) lambda,
with S_k = |psi'_k/psi_k| Lambda_k.
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
_SCAN_POINTS = 256  # grid points of one dense g-scan
# what a ``sides`` / ``extend_sides`` value keeps of the search intervals
_ON_SIDE = {"both": lambda iv: True, "pos": lambda iv: iv.a >= 0.0, "neg": lambda iv: iv.b <= 0.0}


@dataclass(frozen=True)
class Region:
    """Region tag with the scalars and thresholds that produced it."""

    tag: str  # "I" | "II" | "III" | "degenerate"
    psi_k: float
    psi_prime_k: float
    threshold: float  # 24 K |psi_k|


@dataclass(frozen=True)
class RootPrediction:
    """Theorem-backed verdicts for the multiplier intervals at one point.

    ``neg_interval`` / ``pos_interval`` cover lambda in (-Lambda, 0) and
    (0, Lambda); ``ghost_verdict`` covers the ghost zone |s| > 6/5 in region
    II.  ``zero_root`` says lambda = 0 solves the constraint (H_k = 0 within
    tolerance).  Ratios falling between a guaranteed-existence and a
    guaranteed-nonexistence threshold come back indeterminate.
    ``vertex_kind`` is what the same table says the point can be on a
    trajectory (pass-through, bifurcates, begins-or-ends, none, fixed-point,
    indeterminate or degenerate).
    """

    region: Region
    case_label: str
    neg_interval: str
    pos_interval: str
    ghost_verdict: str
    zero_root: bool
    capital_lambda: Optional[float]  # None at a degenerate point, as are S_k and ratio
    S_k: Optional[float]
    ratio: Optional[float]
    vertex_kind: str


@dataclass
class RootRecord:
    """One root of g: its multiplier and the midpoint its residual |g| was measured at.

    ``z_bar`` is that midpoint's coordinate array, the one a DTH step through
    this root reflects through.  Where g read exactly 0 (a grid cell or a
    theorem endpoint) it is solved again at that lambda.
    """

    lam: float
    residual: float
    provenance: str  # "theorem" | "scan"
    is_ghost: bool
    z_bar: np.ndarray = field(repr=False, compare=False)
    s: Optional[float] = None
    in_window: bool = True  # inside [-Lambda_k, Lambda_k]


@dataclass
class MultiplierSet:
    """Roots of g(., z_k) found in the search window.

    lambda_minus / lambda_plus are the regular (non-ghost) roots of each
    sign closest to zero; lambda_zero is 0.0 when H_k vanished within
    tol_g; lambda_ghost is the smallest-magnitude ghost root.  ``roots``
    keeps every record including residuals, provenance and the midpoint
    each residual was measured at; ``unsearched``
    lists intervals skipped because the midpoint solve failed there.
    """

    lambda_minus: Optional[float] = None
    lambda_plus: Optional[float] = None
    lambda_ghost: Optional[float] = None
    lambda_zero: Optional[float] = None
    roots: list[RootRecord] = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    unsearched: list[tuple[float, float, str]] = field(default_factory=list)


def classify_region(cubic: CubicModel) -> Region:
    """Assign a region tag with explicit numeric gates for the zero tests.

    The exact condition psi_k = 0 needs a tolerance in floating point; it
    scales with how much psi can change over one multiplier window,
    tau_psi = 1e-9 (1 + |psi'_k| lambda_delta), and psi'_k = 0 is tested
    against tau_psi' = 1e-9 (1 + |psi_k|).
    """
    psi, psip = cubic.psi_k, cubic.psi_prime_k
    ld = cubic.lambda_delta if np.isfinite(cubic.lambda_delta) else 1.0
    threshold = 24.0 * cubic.K * abs(psi)
    if abs(psi) > 1e-9 * (1.0 + abs(psip) * ld):
        tag = "I" if psip * psip <= threshold else "II"
    elif abs(psip) > 1e-9 * (1.0 + abs(psi)):
        tag = "III"
    else:
        tag = "degenerate"
    return Region(tag=tag, psi_k=psi, psi_prime_k=psip, threshold=threshold)


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
    """Evaluate the existence/uniqueness case table for one point.

    A degenerate point has no table and no window: its label and vertex
    kind read "degenerate", both verdicts none, and Lambda_k, the ratio and
    S_k are None.
    """
    H = cubic.H_k
    zero_root = abs(H) <= tol_g
    if region.tag == "degenerate":
        return RootPrediction(
            region, "degenerate", NONE, NONE, "not-applicable", zero_root,
            capital_lambda=None, S_k=None, ratio=None, vertex_kind="degenerate",
        )
    lam_cap = capital_lambda(region, cubic, constants, shrink=shrink)
    psi, psip = region.psi_k, region.psi_prime_k
    S, ghost = None, "not-applicable"
    if region.tag == "I":
        r = H / psi
        label, neg, pos, kind = _predict_region1(r, lam_cap, zero_root)
    elif region.tag == "II":
        r, S = H / psi, abs(psip / psi) * lam_cap
        label, neg, pos, ghost, kind = _predict_region2(r, psi, psip, S, lam_cap, zero_root)
    else:
        r = H / psip
        label, neg, pos, kind = _predict_region3(r, lam_cap, zero_root)
    return RootPrediction(
        region=region,
        case_label=label,
        neg_interval=neg,
        pos_interval=pos,
        ghost_verdict=ghost,
        zero_root=zero_root,
        capital_lambda=lam_cap,
        S_k=S,
        ratio=r,
        vertex_kind=kind,
    )


def _predict_region1(r, lam_cap, zero_root):
    """EU_1: (case label, neg verdict, pos verdict, vertex kind)."""
    lo = (3.0 / 32.0) * lam_cap**2
    hi = (5.0 / 32.0) * lam_cap**2
    if zero_root:
        label, neg, pos, kind = "EU_1(ii)", NONE, NONE, "fixed-point"
    elif r < 0:
        label, neg, pos, kind = "EU_1(i)", NONE, NONE, "none"
    elif r < lo:
        label, neg, pos, kind = "EU_1(iii)", EXISTS_UNIQUE, EXISTS_UNIQUE, "pass-through"
    elif r > hi:
        label, neg, pos, kind = "EU_1(iv)", NONE, NONE, "none"
    else:
        label, neg, pos, kind = "EU_1(indeterminate)", INDETERMINATE, INDETERMINATE, "indeterminate"
    return label, neg, pos, kind


def _predict_region2(r, psi, psip, S, lam_cap, zero_root):
    """EU_2: (case label, neg verdict, pos verdict, ghost verdict, vertex kind)."""
    ratio2 = (psi / psip) ** 2
    t_neg_side = lam_cap**2 * (6.0 + S) / 48.0      # s in (-S, 0) exists below this
    t_pos_small = lam_cap**2 * (2.0 - S) / 16.0     # s in (0, S) exists below this, S < 6/5
    t_pos_large = (9.0 / 125.0) * ratio2            # s in [0, 6/5) exists below this, S >= 6/5
    t_none = (2.0 / 3.0) * ratio2                   # no root in (0, S) above this
    t_ghost_neg = lam_cap**2 * (6.0 - S) / 48.0     # ghost exists for r above this (S > 6)

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
    pair = s_neg == EXISTS_UNIQUE and s_pos == EXISTS_UNIQUE
    if not (S < GHOST_S_EDGE or S >= 6.0):
        kind = "indeterminate"  # 6/5 <= S < 6: outside the quantified windows
    elif zero_root:  # for S >= 6 the fixed point comes with a ghost branch
        kind = "fixed-point" if S < GHOST_S_EDGE else "bifurcates"
    elif pair:  # so does the regular pair
        kind = "pass-through" if S < GHOST_S_EDGE else "bifurcates"
    elif r < 0 and S < GHOST_S_EDGE:
        kind = "none"
    elif r < 0 and ghost == EXISTS:  # case (iii): only the ghost branch
        kind = "begins-or-ends"
    else:
        kind = "indeterminate"
    # s > 0 corresponds to lambda = -(psi/psip) s
    c = -psi / psip
    if c > 0:
        return label, s_neg, s_pos, ghost, kind
    return label, s_pos, s_neg, ghost, kind


def _predict_region3(r, lam_cap, zero_root):
    """EU_3: (case label, neg verdict, pos verdict, vertex kind)."""
    lo = lam_cap**3 / 48.0
    hi = lam_cap**3 / 16.0
    if zero_root:
        label, neg, pos, kind = "EU_3(iii)", NONE, NONE, "fixed-point"
    elif 0 < r < lo:
        label, neg, pos, kind = "EU_3(ii)", NONE, EXISTS_UNIQUE, "begins-or-ends"
    elif -lo < r < 0:
        label, neg, pos, kind = "EU_3(i)", EXISTS_UNIQUE, NONE, "begins-or-ends"
    elif abs(r) > hi:
        label, neg, pos, kind = "EU_3(iv)", NONE, NONE, "none"
    else:
        label, neg, pos, kind = "EU_3(indeterminate)", INDETERMINATE, INDETERMINATE, "indeterminate"
    return label, neg, pos, kind


def _root_in_bracket(curve, start, a, b, fa, tol_lambda, tol_g):
    """(lambda, |g|, z_bar) at the root of a sign change [a, b], g(a) = fa; None on a flat g."""
    lam, val = curve.newton(start, a, b, tol_g, 30, tol_lambda=tol_lambda, g_lo=fa)
    if abs(val) > tol_g:  # the residual contract
        return None
    return lam, abs(val), curve.midpoint(lam)  # newton's last g was at lam: no new solve


def _sign_change_cells(vals: np.ndarray) -> np.ndarray:
    """Cells i of a g grid the dense scan searches: g = 0 at the left end, or a sign change."""
    left, right = vals[:-1], vals[1:]
    return np.flatnonzero((left == 0.0) | ((left < 0) != (right < 0)))


def _scan_interval(curve, a, b, tol_lambda, tol_g):
    """Dense scan, then a search from the regula-falsi point of each sign change."""
    xs = np.linspace(a, b, _SCAN_POINTS)
    vals = curve.g_grid(xs)
    cells = _sign_change_cells(vals).tolist()
    xs, vals = xs.tolist(), vals.tolist()
    found = []
    for xa, xb, fa, fb in ((xs[i], xs[i + 1], vals[i], vals[i + 1]) for i in cells):
        hit = (xa, 0.0, curve.midpoint(xa)) if fa == 0.0 else _root_in_bracket(
            curve, xa - fa * (xb - xa) / (fb - fa), xa, xb, fa, tol_lambda, tol_g)
        if hit is not None:
            found.append(hit)
    return found


@dataclass(frozen=True)
class _SearchInterval:
    """One lambda interval for solve_roots, with what the case table says of it."""

    a: float
    b: float
    verdict: str
    where: str  # suffix of the "midpoint solve failed" message
    is_ghost: bool = False
    in_window: bool = True
    c: Optional[float] = None  # lambda per s-unit in region II


def _search_intervals(prediction, extend_to, extend_sides, sides):
    """The intervals solve_roots searches, in the order it searches them.

    Regions I and III give (-Lambda, 0) and (0, Lambda); region II gives
    s in (-S, 0), s in (0, min(6/5, S)) and the ghost zone s in (6/5, S),
    each sorted into lambda and read on its side; ``none`` verdicts drop
    out.  The extension annuli past Lambda follow.  ``sides`` keeps one
    side's intervals, ``extend_sides`` one side's annulus.
    """
    lam_cap = prediction.capital_lambda
    region = prediction.region
    if region.tag in ("I", "III"):
        c, ghost, zones = None, NONE, [(-lam_cap, 0.0, "", False), (0.0, lam_cap, "", False)]
    elif region.tag == "II":
        c = -region.psi_k / region.psi_prime_k  # lambda = c * s
        S = prediction.S_k
        ghost = prediction.ghost_verdict if S > GHOST_S_EDGE else NONE
        zones = [
            (c * -S, c * 0.0, " in s<0", False),
            (c * 0.0, c * min(GHOST_S_EDGE, S), " in s>0", False),
            (c * GHOST_S_EDGE, c * S, " in ghost zone", True),  # never exists-unique: scanned
        ]
    else:
        raise UnsupportedRegionError("solve_roots needs a non-degenerate prediction")
    out = []
    for za, zb, where, is_ghost in zones:
        a, b = sorted((za, zb))
        side = prediction.pos_interval if a >= 0.0 else prediction.neg_interval
        verdict = ghost if is_ghost else side
        if verdict != NONE:
            out.append(_SearchInterval(a, b, verdict, where, is_ghost, c=c))
    if extend_to is not None and extend_to > lam_cap:
        for a, b in ((-extend_to, -lam_cap), (lam_cap, extend_to)):
            out.append(_SearchInterval(a, b, INDETERMINATE, " in extension", in_window=False))
    for name, value in (("sides", sides), ("extend_sides", extend_sides)):
        if value not in _ON_SIDE:
            raise ParameterError(f"{name} must be both, pos or neg, got {value!r}")
    on, on_ext = _ON_SIDE[sides], _ON_SIDE[extend_sides]
    return [iv for iv in out if on(iv) and (iv.in_window or on_ext(iv))]


def solve_roots(
    model: HamiltonianModel,
    z_k: ExtendedState,
    prediction: RootPrediction,
    tol_g: float = 1e-12,
    tol_lambda: float = 1e-9,
    solver_tol: float = 1e-13,
    extend_to: Optional[float] = None,
    extend_sides: str = "both",
    grad: Optional[np.ndarray] = None,
    sides: str = "both",
) -> MultiplierSet:
    """Find the multipliers the prediction allows inside [-Lambda, Lambda].

    One loop walks the search intervals of the prediction.  Intervals with
    a ``none`` verdict are trusted and skipped.  An ``exists-unique``
    interval gets an endpoint sign test, then safeguarded Newton that
    narrows the sign change to ``tol_lambda`` and a polish to |g| <= tol_g
    (provenance "theorem").  Every other interval, and an ``exists-unique``
    one whose endpoint test loses the root to float noise, is scanned on a
    256-point grid, with the same search in each sign change (provenance
    "scan").  In region II the intervals are cut in s-units; the ghost zone
    s in (6/5, S) is always scanned and its roots are recorded as ghosts.
    An interval where a midpoint solve fails is listed in ``unsearched``.

    By default the search stops at the case-table window.  ``extend_to``
    additionally scans the annulus between Lambda and the given radius
    (at most the decoupling radius makes sense); anything found there is
    recorded with in_window=False and provenance "scan" since no uniqueness
    statement covers it.  ``extend_sides`` limits the extension to "pos" or
    "neg" multipliers, and ``sides`` every interval: g is then never
    evaluated at the other sign; any other value of either raises
    ``ParameterError``.  ``grad`` is H_z(z_k) when the caller has already
    evaluated it.
    """
    curve = ConstraintCurve(model, z_k, tol=solver_tol, grad=grad)
    result = MultiplierSet()
    if prediction.zero_root:
        result.lambda_zero = 0.0
        result.residuals["zero"] = abs(curve.g(0.0))

    records: list[RootRecord] = []
    for iv in _search_intervals(prediction, extend_to, extend_sides, sides):
        try:
            hits, provenance = [], "theorem"
            if iv.verdict == EXISTS_UNIQUE:
                fa, fb = curve.g(iv.a), curve.g(iv.b)
                if fa == 0.0 or fb == 0.0:
                    end = iv.a if fa == 0.0 else iv.b
                    hits = [(end, 0.0, curve.midpoint(end))]
                elif (fa < 0) != (fb < 0):
                    # a theorem interval ends at lambda = 0, where g' = 0: a
                    # regula-falsi start would land in that flat part
                    mid = 0.5 * (iv.a + iv.b)
                    hit = _root_in_bracket(curve, mid, iv.a, iv.b, fa, tol_lambda, tol_g)
                    hits = [] if hit is None else [hit]
            if not hits:
                hits = _scan_interval(curve, iv.a, iv.b, tol_lambda, tol_g)
                provenance = "scan"
        except (NonconvergenceError, LinearSolveError):
            result.unsearched.append((iv.a, iv.b, "midpoint solve failed" + iv.where))
            continue
        for lam, res, z_bar in hits:
            s = None if iv.c is None else lam / iv.c
            records.append(RootRecord(lam, res, provenance, iv.is_ghost, z_bar, s, iv.in_window))

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
    final_pm: float
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
    return GhostReport(
        psi_min=psi_min,
        ghost_bound=ghost_bound,
        pm_magnitudes=tuple(pm),
        final_pm=final_pm,
        ghosts_detected=len(ghosts),
        ghosts_bounded_away=all(g > ghost_bound for g in ghosts),
    )
