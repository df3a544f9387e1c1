import hashlib
from collections import Counter

import numpy as np
import pytest

from semint import models
from semint.bounds import derive_constants, estimate_bounds
from semint.constraint import ConstraintCurve, CubicModel, cubic_model
from semint.errors import ParameterError, PreconditionError, UnsupportedRegionError
from semint.extphase import sample_fields
from semint.multiplier import (
    EXISTS,
    EXISTS_UNIQUE,
    INDETERMINATE,
    NONE,
    MultiplierSet,
    capital_lambda,
    classify_region,
    ghost_check,
    predict_roots,
    _sign_change_cells,
    solve_roots,
)

from conftest import pendulum_state


def make_cubic(H=0.0, psi=1.0, psi_prime=0.0, K=0.28125, lambda_delta=0.375):
    return CubicModel(H_k=H, psi_k=psi, psi_prime_k=psi_prime, K=K, lambda_delta=lambda_delta)


def reference_constants():
    """The unit-bounds constants: K = 0.28125, lambda_delta = 0.375."""
    from semint.bounds import RegionBounds

    bounds = RegionBounds(
        M1=1.0, M2=1.0, gamma_H=1.0, N1=1.0, N2=1.0,
        center=pendulum_state(0, 0), radius=1.0,
    )
    return derive_constants(bounds, 0.5)


def dense_scan_roots(model, z, lo, hi, points=1024, refine=60):
    """Independent root oracle: sign changes of g on a dense grid, bisected."""
    curve = ConstraintCurve(model, z, tol=1e-14)
    xs = np.linspace(lo, hi, points)
    vals = [curve.g(x) for x in xs]
    roots = []
    for i in range(points - 1):
        a, b, fa, fb = xs[i], xs[i + 1], vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if (fa < 0) != (fb < 0):
            for _ in range(refine):
                m = 0.5 * (a + b)
                fm = curve.g(m)
                if fm == 0.0:
                    a = b = m
                    break
                if (fa < 0) == (fm < 0):
                    a, fa = m, fm
                else:
                    b, fb = m, fm
            roots.append(0.5 * (a + b))
    return roots


def on_psi_zero_curve(q):
    """Solve psi(q, p) = 0 for p > 0 by Newton (needs cos q < 0)."""
    p = np.sqrt(-np.sin(q) ** 2 / np.cos(q))
    for _ in range(60):
        val = models.pendulum_psi(q, p)
        slope = 2.0 * p * np.cos(q)
        step = val / slope
        p -= step
        if abs(step) < 1e-15:
            break
    return p


def pendulum_wp_for_ratio(q, p, ratio, scale):
    """wp making H = ratio * scale at the point (q, p)."""
    return ratio * scale - (0.5 * p * p - np.cos(q))


class TestClassifyRegion:
    def test_pendulum_reference_point_region1(self, pendulum, pendulum_constants):
        cubic = cubic_model(pendulum, pendulum_state(np.pi / 2, 1.0, wp=0.0), pendulum_constants)
        region = classify_region(cubic)
        assert region.tag == "I"
        assert region.psi_prime_k**2 <= region.threshold

    def test_synthetic_region3(self):
        region = classify_region(make_cubic(psi=0.0, psi_prime=-1.0))
        assert region.tag == "III"

    def test_degenerate(self):
        assert classify_region(make_cubic(psi=0.0, psi_prime=0.0)).tag == "degenerate"

    def test_pendulum_equilibrium_degenerate(self, pendulum, pendulum_constants):
        cubic = cubic_model(pendulum, pendulum_state(0.0, 0.0, wp=1.0), pendulum_constants)
        assert classify_region(cubic).tag == "degenerate"

    def test_region2_small_psi(self):
        region = classify_region(make_cubic(psi=1e-3, psi_prime=1.0))
        assert region.tag == "II"
        assert region.psi_prime_k**2 > region.threshold


class TestCapitalLambda:
    def test_region1_reference_value(self):
        constants = reference_constants()
        region = classify_region(make_cubic(psi=1.0, psi_prime=0.1))
        assert region.tag == "I"
        lam = capital_lambda(region, make_cubic(psi=1.0, psi_prime=0.1), constants)
        # 0.9 * min(sqrt(1/27), 0.375) = 0.9 * 0.19245...
        assert lam == pytest.approx(0.17320508075688773, abs=1e-12)

    def test_region3_reference_value(self):
        constants = reference_constants()
        cubic = make_cubic(psi=0.0, psi_prime=1.0)
        region = classify_region(cubic)
        lam = capital_lambda(region, cubic, constants)
        # 0.9 * min(1/13.5, 0.375)
        assert lam == pytest.approx(0.06666666666666667, abs=1e-12)

    def test_shrink_strictly_inside(self):
        constants = reference_constants()
        cubic = make_cubic(psi=1.0, psi_prime=0.1)
        region = classify_region(cubic)
        sup = min(np.sqrt(1.0 / (96 * cubic.K)), constants.lambda_delta)
        for shrink in (0.5, 0.9, 0.999):
            assert capital_lambda(region, cubic, constants, shrink=shrink) == pytest.approx(
                shrink * sup
            )
            assert capital_lambda(region, cubic, constants, shrink=shrink) < sup

    def test_degenerate_rejected(self):
        constants = reference_constants()
        cubic = make_cubic(psi=0.0, psi_prime=0.0)
        with pytest.raises(UnsupportedRegionError):
            capital_lambda(classify_region(cubic), cubic, constants)

    def test_shrink_validated(self):
        constants = reference_constants()
        cubic = make_cubic(psi=1.0)
        with pytest.raises(ParameterError):
            capital_lambda(classify_region(cubic), cubic, constants, shrink=1.0)


class TestPredictRegion1:
    def setup_method(self):
        self.constants = reference_constants()
        self.cubic_base = dict(psi=1.0, psi_prime=0.1)
        region = classify_region(make_cubic(**self.cubic_base))
        self.lam_cap = capital_lambda(region, make_cubic(**self.cubic_base), self.constants)

    def predict(self, H):
        cubic = make_cubic(H=H, **self.cubic_base)
        return predict_roots(classify_region(cubic), cubic, self.constants)

    def test_negative_ratio_none(self):
        pred = self.predict(-0.001)
        assert pred.case_label == "EU_1(i)"
        assert pred.neg_interval == NONE and pred.pos_interval == NONE
        assert not pred.zero_root

    def test_zero_ratio_fixed_point(self):
        pred = self.predict(0.0)
        assert pred.case_label == "EU_1(ii)"
        assert pred.zero_root
        assert pred.neg_interval == NONE and pred.pos_interval == NONE

    def test_small_positive_two_roots(self):
        r = 0.5 * (3.0 / 32.0) * self.lam_cap**2
        pred = self.predict(r)
        assert pred.case_label == "EU_1(iii)"
        assert pred.neg_interval == EXISTS_UNIQUE and pred.pos_interval == EXISTS_UNIQUE

    def test_large_positive_none(self):
        r = 2.0 * (5.0 / 32.0) * self.lam_cap**2
        pred = self.predict(r)
        assert pred.case_label == "EU_1(iv)"
        assert pred.neg_interval == NONE and pred.pos_interval == NONE

    def test_gap_indeterminate(self):
        r = 4.0 / 32.0 * self.lam_cap**2  # between 3/32 and 5/32
        pred = self.predict(r)
        assert pred.neg_interval == INDETERMINATE and pred.pos_interval == INDETERMINATE


class TestPredictRegion3:
    def setup_method(self):
        self.constants = reference_constants()
        cubic = make_cubic(psi=0.0, psi_prime=1.0)
        self.lam_cap = capital_lambda(classify_region(cubic), cubic, self.constants)

    def predict(self, H):
        cubic = make_cubic(H=H, psi=0.0, psi_prime=1.0)
        return predict_roots(classify_region(cubic), cubic, self.constants)

    def test_small_positive_unique_forward(self):
        pred = self.predict(0.5 * self.lam_cap**3 / 48.0)
        assert pred.case_label == "EU_3(ii)"
        assert pred.pos_interval == EXISTS_UNIQUE and pred.neg_interval == NONE

    def test_small_negative_unique_backward(self):
        pred = self.predict(-0.5 * self.lam_cap**3 / 48.0)
        assert pred.case_label == "EU_3(i)"
        assert pred.neg_interval == EXISTS_UNIQUE and pred.pos_interval == NONE

    def test_zero_only_zero_root(self):
        pred = self.predict(0.0)
        assert pred.case_label == "EU_3(iii)"
        assert pred.zero_root

    def test_large_none(self):
        pred = self.predict(2.0 * self.lam_cap**3 / 16.0)
        assert pred.case_label == "EU_3(iv)"
        assert pred.neg_interval == NONE and pred.pos_interval == NONE

    def test_gap_indeterminate(self):
        pred = self.predict(1.1 * self.lam_cap**3 / 48.0)
        assert INDETERMINATE in (pred.neg_interval, pred.pos_interval)


class TestPredictRegion2:
    def test_large_S_positive_ratio_bifurcation_window(self):
        constants = reference_constants()
        cubic = make_cubic(H=5e-8 * 1e-3, psi=1e-3, psi_prime=1.0)
        region = classify_region(cubic)
        assert region.tag == "II"
        pred = predict_roots(region, cubic, constants)
        assert pred.S_k > 6.0
        ratio2 = (cubic.psi_k / cubic.psi_prime_k) ** 2
        assert cubic.H_k / cubic.psi_k < (9.0 / 125.0) * ratio2
        assert pred.ghost_verdict == EXISTS
        # psi/psi' > 0 means c = -psi/psi' < 0: positive s maps to negative lambda
        assert pred.neg_interval == EXISTS_UNIQUE  # the s+ root
        assert pred.pos_interval == EXISTS_UNIQUE  # the s- root

    def test_large_S_zero_ratio_ghost_persists(self):
        constants = reference_constants()
        cubic = make_cubic(H=0.0, psi=1e-3, psi_prime=1.0)
        pred = predict_roots(classify_region(cubic), cubic, constants)
        assert pred.zero_root
        assert pred.ghost_verdict == EXISTS
        assert "vi.b" in pred.case_label

    def test_large_S_slightly_negative_ratio_ghost_only(self):
        constants = reference_constants()
        cubic = make_cubic(H=-1e-9, psi=1e-3, psi_prime=1.0)
        pred = predict_roots(classify_region(cubic), cubic, constants)
        assert pred.neg_interval == NONE and pred.pos_interval == NONE
        assert pred.ghost_verdict == EXISTS  # case (iii): a beginning/end point

    def test_large_ratio_no_positive_s_roots(self):
        constants = reference_constants()
        cubic = make_cubic(H=1e-3 * 1e-3, psi=1e-3, psi_prime=1.0)
        # r = 1e-3 exceeds (2/3)(psi/psi')^2 = 6.7e-7
        pred = predict_roots(classify_region(cubic), cubic, constants)
        assert pred.ghost_verdict == NONE
        # the s- side keeps its root: r below Lambda^2 (6+S)/48
        assert EXISTS_UNIQUE in (pred.neg_interval, pred.pos_interval)

    def test_S_exactly_six_kind_agrees_with_the_ghost_table(self):
        # the table grants EU_2(vi.b) for S >= 6, so the vertex kind must too
        psi = 0.09999999999999999
        cubic = make_cubic(H=1e-6 * psi, psi=psi, psi_prime=3.0)
        pred = predict_roots(classify_region(cubic), cubic, reference_constants())
        assert pred.S_k == 6.0
        assert pred.case_label == "EU_2(iv,vi.a,vi.b)"
        assert pred.ghost_verdict == EXISTS
        assert pred.vertex_kind == "bifurcates"

    def test_small_S_behaves_like_region1(self):
        constants = reference_constants()
        cubic = make_cubic(H=1e-4, psi=1.0, psi_prime=3.0)  # 24K < 9 < 64K
        region = classify_region(cubic)
        assert region.tag == "II"
        pred = predict_roots(region, cubic, constants)
        assert pred.S_k < 6.0 / 5.0
        assert pred.ghost_verdict == "not-applicable"
        assert pred.neg_interval == EXISTS_UNIQUE and pred.pos_interval == EXISTS_UNIQUE


class TestPredictDegenerate:
    def test_no_table_and_no_window(self):
        cubic = make_cubic(H=0.3, psi=0.0, psi_prime=0.0)
        pred = predict_roots(classify_region(cubic), cubic, reference_constants())
        assert (pred.case_label, pred.vertex_kind) == ("degenerate", "degenerate")
        assert (pred.neg_interval, pred.pos_interval) == (NONE, NONE)
        assert pred.ghost_verdict == "not-applicable" and not pred.zero_root
        assert pred.capital_lambda is None and pred.ratio is None and pred.S_k is None

    def test_solve_roots_rejects_it(self, pendulum, pendulum_constants):
        z = pendulum_state(0.0, 0.0, wp=1.0)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        assert pred.vertex_kind == "degenerate"
        with pytest.raises(UnsupportedRegionError):
            solve_roots(pendulum, z, pred)


class TestSolveRootsRegion1:
    def test_balanced_point_only_zero(self, pendulum, pendulum_constants):
        z = pendulum_state(0.0, 1.0, wp=0.5)  # H = 0 exactly
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        assert pred.case_label == "EU_1(ii)"
        roots = solve_roots(pendulum, z, pred)
        assert roots.lambda_zero == 0.0
        assert roots.lambda_plus is None and roots.lambda_minus is None
        # oracle: no sign change anywhere in the window
        assert dense_scan_roots(pendulum, z, -pred.capital_lambda, pred.capital_lambda) == []

    def test_offset_point_pair_of_roots(self, pendulum, pendulum_constants):
        # H = 1e-3, psi = 1: the leading-order roots are +-sqrt(8e-3)
        z = pendulum_state(0.0, 1.0, wp=0.501)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        roots = solve_roots(
            pendulum, z, pred, extend_to=pendulum_constants.lambda_delta
        )
        assert roots.lambda_plus == pytest.approx(np.sqrt(8e-3), abs=1e-3)
        assert roots.lambda_minus == pytest.approx(-np.sqrt(8e-3), abs=1e-3)
        # independent oracle agrees
        oracle = dense_scan_roots(
            pendulum, z, -pendulum_constants.lambda_delta, pendulum_constants.lambda_delta
        )
        assert len(oracle) == 2
        assert roots.lambda_minus == pytest.approx(oracle[0], abs=1e-8)
        assert roots.lambda_plus == pytest.approx(oracle[1], abs=1e-8)
        for key, resid in roots.residuals.items():
            assert resid <= 1e-12

    def test_in_window_roots_found_without_extension(self, pendulum, pendulum_constants):
        # tiny H puts the roots inside the case-table window
        cubic0 = cubic_model(pendulum, pendulum_state(0.0, 1.0, wp=0.5), pendulum_constants)
        region0 = classify_region(cubic0)
        lam_cap = capital_lambda(region0, cubic0, pendulum_constants)
        H = 0.5 * (3.0 / 32.0) * lam_cap**2  # psi = 1 at this point
        z = pendulum_state(0.0, 1.0, wp=0.5 + H)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        assert pred.case_label == "EU_1(iii)"
        roots = solve_roots(pendulum, z, pred)
        assert roots.lambda_plus is not None and roots.lambda_minus is not None
        assert roots.lambda_minus < 0 < roots.lambda_plus
        assert all(rec.in_window for rec in roots.roots)
        assert all(rec.provenance == "theorem" for rec in roots.roots)


class TestSolveRootsRegion3:
    @pytest.fixture()
    def setup_point(self, pendulum, pendulum_constants):
        q = 2.0
        p = on_psi_zero_curve(q)
        fields = sample_fields(pendulum, pendulum_state(q, p))
        assert abs(fields.psi) < 1e-12
        return q, p, fields.psi_prime

    def test_unique_forward_root(self, pendulum, pendulum_constants, setup_point):
        q, p, psip = setup_point
        cubic0 = make_cubic(psi=0.0, psi_prime=psip, K=pendulum_constants.K,
                            lambda_delta=pendulum_constants.lambda_delta)
        lam_cap = capital_lambda(classify_region(cubic0), cubic0, pendulum_constants)
        h = 0.5 * lam_cap**3 / 48.0  # H/psi' halfway into the existence window
        wp = pendulum_wp_for_ratio(q, p, h, psip)
        z = pendulum_state(q, p, wp=wp)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        region = classify_region(cubic)
        assert region.tag == "III"
        pred = predict_roots(region, cubic, pendulum_constants)
        assert pred.case_label == "EU_3(ii)"
        roots = solve_roots(pendulum, z, pred, tol_g=1e-13)
        assert roots.lambda_plus is not None
        assert 0 < roots.lambda_plus < pred.capital_lambda
        assert roots.lambda_minus is None
        # cubic-model location: lambda ~ (24 H / psi')^(1/3)
        assert roots.lambda_plus == pytest.approx((24 * h) ** (1 / 3), rel=0.05)
        # oracle scan of the backward interval finds nothing
        assert dense_scan_roots(pendulum, z, -pred.capital_lambda, -1e-12) == []

    def test_unique_backward_root(self, pendulum, pendulum_constants, setup_point):
        q, p, psip = setup_point
        cubic0 = make_cubic(psi=0.0, psi_prime=psip, K=pendulum_constants.K,
                            lambda_delta=pendulum_constants.lambda_delta)
        lam_cap = capital_lambda(classify_region(cubic0), cubic0, pendulum_constants)
        h = -0.5 * lam_cap**3 / 48.0
        wp = pendulum_wp_for_ratio(q, p, h, psip)
        z = pendulum_state(q, p, wp=wp)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        assert pred.case_label == "EU_3(i)"
        roots = solve_roots(pendulum, z, pred, tol_g=1e-13)
        assert roots.lambda_minus is not None and roots.lambda_plus is None
        assert -pred.capital_lambda < roots.lambda_minus < 0


class TestSolveRootsRegion2:
    @pytest.fixture()
    def ghost_site(self, pendulum):
        """Pendulum point just off the psi = 0 curve, with local bounds."""
        q = 2.0
        p_curve = on_psi_zero_curve(q)
        psi_target = 8e-4
        p = p_curve
        for _ in range(60):  # Newton in p for psi = psi_target
            val = models.pendulum_psi(q, p) - psi_target
            p -= val / (2.0 * p * np.cos(q))
            if abs(val) < 1e-16:
                break
        center = pendulum_state(q, p, wp=-(0.5 * p * p - np.cos(q)))
        raw = estimate_bounds(pendulum, center, 0.35, 13)
        constants = derive_constants(raw.scaled(1.1), 0.5)
        return q, p, raw.scaled(1.1), constants

    def test_geometry_is_region2_large_S(self, pendulum, ghost_site):
        q, p, bounds, constants = ghost_site
        z = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, 0.0, 1.0))
        cubic = cubic_model(pendulum, z, constants)
        region = classify_region(cubic)
        assert region.tag == "II"
        pred = predict_roots(region, cubic, constants)
        assert pred.S_k > 6.0

    def test_ghost_alongside_vanishing_pair(self, pendulum, ghost_site):
        q, p, bounds, constants = ghost_site
        fields = sample_fields(pendulum, pendulum_state(q, p))
        psi, psip = fields.psi, fields.psi_prime
        c = -psi / psip
        ratio2 = (psi / psip) ** 2
        r = 0.8 * (9.0 / 125.0) * ratio2  # inside the bifurcation window
        z = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, r, psi))
        cubic = cubic_model(pendulum, z, constants)
        assert abs(cubic.H_k) > 1e-12  # stays above the zero-root gate
        pred = predict_roots(classify_region(cubic), cubic, constants)
        assert pred.ghost_verdict == EXISTS
        roots = solve_roots(pendulum, z, pred, tol_g=1e-13)
        assert roots.lambda_plus is not None and roots.lambda_minus is not None
        assert roots.lambda_ghost is not None
        # regular pair sits at sqrt(8r) scale, ghost beyond (6/5)|c|
        assert abs(roots.lambda_plus) < 1.2 * np.sqrt(8 * r) + 1e-9
        assert abs(roots.lambda_minus) < 1.2 * np.sqrt(8 * r) + 1e-9
        assert abs(roots.lambda_ghost) > (6.0 / 5.0) * abs(c)
        ghost_records = [rec for rec in roots.roots if rec.is_ghost]
        assert ghost_records and all(rec.s > 6.0 / 5.0 for rec in ghost_records)

    def test_s_and_lambda_searches_agree(self, pendulum, ghost_site):
        # oracle: dense lambda-unit scan over the whole window
        q, p, bounds, constants = ghost_site
        fields = sample_fields(pendulum, pendulum_state(q, p))
        r = 0.8 * (9.0 / 125.0) * (fields.psi / fields.psi_prime) ** 2
        z = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, r, fields.psi))
        cubic = cubic_model(pendulum, z, constants)
        pred = predict_roots(classify_region(cubic), cubic, constants)
        roots = solve_roots(pendulum, z, pred, tol_g=1e-13, tol_lambda=1e-10)
        got = sorted(rec.lam for rec in roots.roots)
        oracle = dense_scan_roots(
            pendulum, z, -pred.capital_lambda, pred.capital_lambda, points=4096
        )
        oracle = [x for x in oracle if abs(x) > 1e-9]
        assert len(oracle) == len(got)
        # dg/dlambda ~ 3e-8 near these roots, so float noise in g (~4e-16)
        # limits any solver's root location to ~1e-8; compare at that scale
        for a, b in zip(got, sorted(oracle)):
            assert a == pytest.approx(b, abs=1e-7)


class TestSolveRootsRegion2NegativeScale:
    """Region II with psi_k psi'_k > 0, so lambda = c s with c = -psi/psi' < 0:
    s > 0 lies at lambda < 0 and the s-zones are searched mirrored."""

    @staticmethod
    def vertex(dp, h_over_psi):
        """Pendulum at q = 2, p = p0 + dp (psi(2, p0) = 0), with H_k = h_over_psi psi_k."""
        q = 2.0
        p = np.sqrt(-np.sin(q) ** 2 / np.cos(q)) + dp
        H = h_over_psi * models.pendulum_psi(q, p)
        return pendulum_state(q, p, wp=H - (0.5 * p * p - np.cos(q)))

    @pytest.mark.parametrize(
        "dp, h_over_psi, label, want",
        [
            # theorem roots at s ~ 0.75 (lambda < 0) and s ~ -0.59 (lambda > 0)
            (3e-3, 1e-7, "EU_2(iv,vi.a)", [(-1.0333e-3, False), (8.172e-4, False)]),
            # one ghost at s ~ 6.07 (lambda < 0)
            (1e-3, -1e-6, "EU_2(i)", [(-2.791e-3, True)]),
        ],
        ids=["regular-pair", "ghost"],
    )
    def test_roots_lie_in_sign_changes_and_zones(
        self, pendulum, pendulum_constants, dp, h_over_psi, label, want
    ):
        z = self.vertex(dp, h_over_psi)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        region = classify_region(cubic)
        pred = predict_roots(region, cubic, pendulum_constants)
        c = -region.psi_k / region.psi_prime_k
        assert region.tag == "II" and c < 0 and pred.case_label == label
        roots = solve_roots(pendulum, z, pred)
        assert [(rec.lam, rec.is_ghost) for rec in roots.roots] == [
            (pytest.approx(lam, rel=1e-3), ghost) for lam, ghost in want
        ]
        width = abs(c) * pred.S_k
        xs = np.linspace(-width, width, 4097)
        cells = set(_sign_change_cells(ConstraintCurve(pendulum, z, tol=1e-13).g_grid(xs)).tolist())
        for rec in roots.roots:
            assert int(np.searchsorted(xs, rec.lam, side="right")) - 1 in cells
            assert rec.s == rec.lam / c
            if rec.is_ghost:
                assert 6.0 / 5.0 < rec.s < pred.S_k
            else:
                assert -pred.S_k < rec.s < min(6.0 / 5.0, pred.S_k) and rec.s != 0.0


class TestMonotoneIntervals:
    def test_derivative_sign_constant_region1(self, pendulum, pendulum_constants):
        z = pendulum_state(0.0, 1.0, wp=0.501)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        curve = ConstraintCurve(pendulum, z, tol=1e-13)
        for a, b in ((-pred.capital_lambda, 0.0), (0.0, pred.capital_lambda)):
            xs = np.linspace(a, b, 128)[1:-1]
            signs = {s for s in (np.sign(curve.g_and_derivative(x)[1]) for x in xs) if s != 0}
            assert len(signs) == 1


class TestPartialResults:
    def test_failing_interval_flagged_unsearched(
        self, pendulum, pendulum_constants, monkeypatch
    ):
        # a decoupler failure inside one interval yields a partial result,
        # not an exception
        import semint.multiplier as mult
        from semint.errors import NonconvergenceError

        class FailingCurve(ConstraintCurve):
            def g(self, lam):
                if lam > 0.005:
                    raise NonconvergenceError("stub divergence", residual=1.0, iterations=1)
                return super().g(lam)

            def g_and_derivative(self, lam):
                if lam > 0.005:
                    raise NonconvergenceError("stub divergence", residual=1.0, iterations=1)
                return super().g_and_derivative(lam)

            def g_grid(self, lams):
                if np.max(lams) > 0.005:
                    raise NonconvergenceError("stub divergence", residual=1.0, iterations=1)
                return super().g_grid(lams)

        monkeypatch.setattr(mult, "ConstraintCurve", FailingCurve)
        z = pendulum_state(0.0, 1.0, wp=0.501)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        roots = solve_roots(
            pendulum, z, pred, extend_to=pendulum_constants.lambda_delta
        )
        assert roots.unsearched  # the positive extension failed
        assert roots.lambda_minus is not None  # the negative side still searched


    # recorded with the scalar dense scan: the batched scan must give up on
    # exactly the same intervals when no midpoint solve can meet its tolerance
    UNSEARCHED = {
        (0.7, -0.9, 0.3603077296546011): [
            (-0.11868980597796436, -0.02369935210463289, "midpoint solve failed in extension"),
            (0.02369935210463289, 0.11868980597796436, "midpoint solve failed in extension"),
        ],
        (1.93, 1.5782623919766807, -1.5969849308969368): [
            (-0.004440269689702873, 0.0, "midpoint solve failed in s<0"),
            (0.0, 0.00026084085660217323, "midpoint solve failed in s>0"),
            (0.00026084085660217323, 0.004440269689702873, "midpoint solve failed in ghost zone"),
            (-0.11868980597796436, -0.004440269689702873, "midpoint solve failed in extension"),
            (0.004440269689702873, 0.11868980597796436, "midpoint solve failed in extension"),
        ],
    }

    @pytest.mark.parametrize("point", sorted(UNSEARCHED), ids=["region-I", "region-II-ghost"])
    def test_unsearched_intervals_pinned(self, pendulum, pendulum_constants, point):
        q, p, wp = point
        z = pendulum_state(q, p, wp=wp)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        kwargs = dict(extend_to=pendulum_constants.lambda_delta)
        assert solve_roots(pendulum, z, pred, **kwargs).unsearched == []
        failing = solve_roots(pendulum, z, pred, solver_tol=1e-300, **kwargs)
        assert failing.unsearched == self.UNSEARCHED[point]
        assert failing.roots == []


class TestGhostCheck:
    def test_vacuous_fixed_point_sequence(self, pendulum, pendulum_constants, pendulum_scaled):
        z = pendulum_state(0.0, 1.0, wp=0.5)  # EU_1(ii) point
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        sets, cubics = [], []
        for _ in range(3):
            sets.append(solve_roots(pendulum, z, pred))
            cubics.append(cubic)
        report = ghost_check(sets, cubics, pendulum_scaled, ratio_tol=1e-9)
        assert report.ghosts_detected == 0
        assert report.ghosts_bounded_away  # vacuously
        assert report.final_pm == 0.0

    def test_rejects_psi_zero(self, pendulum_scaled):
        cubic = make_cubic(psi=0.0, psi_prime=1.0)
        with pytest.raises(PreconditionError):
            ghost_check([MultiplierSet()], [cubic], pendulum_scaled)

    def test_rejects_negative_ratio(self, pendulum_scaled):
        cubic = make_cubic(H=-1.0, psi=1.0)
        with pytest.raises(PreconditionError):
            ghost_check([MultiplierSet()], [cubic], pendulum_scaled)


def _exact(*values):
    """repr of each value with numbers as plain floats (exact round trip)."""
    return repr(tuple(v if v is None or isinstance(v, (str, bool)) else float(v) for v in values))


def _roots_text(result):
    """Every observable field of a MultiplierSet, floats written exactly."""
    lines = [
        _exact(result.lambda_minus, result.lambda_plus, result.lambda_ghost, result.lambda_zero),
        _exact(*(v for item in sorted(result.residuals.items()) for v in item)),
    ]
    lines += [_exact(*interval) for interval in result.unsearched]
    for rec in result.roots:
        lines.append(_exact(rec.lam, rec.residual, rec.provenance, rec.is_ghost, rec.s, rec.in_window))
    return "\n".join(lines)


class TestSolveRootsPinned:
    """Exact solve_roots results at pendulum points in every case-table region.

    Each point runs under no extension, under an extension to lambda_delta on
    both sides, the positive side and the negative side, and with a solver
    tolerance no midpoint solve can meet.  The digest covers every root's
    lambda, residual, provenance, ghost flag, s and in-window flag, the
    lambda_* summary, the residuals and the unsearched intervals.
    """

    POINTS = {
        "I-inside": (0.0, 1.0, 0.5000254488128532),  # EU_1(iii)
        "I-beyond": (0.0, 1.0, 0.501),  # EU_1(iv): roots only past Lambda_k
        "I-indeterminate": (0.0, 1.0, 0.5000678635009418),  # EU_1(indeterminate)
        "I-negative": (0.0, 1.0, 0.4),  # EU_1(i)
        "zero-root": (0.0, 1.0, 0.5),  # EU_1(ii)
        "II-small-S": (2.0, 1.3995570670161739, -1.3955268239753231),  # EU_2(iv,v), S = 0.64
        # S = 7.8 at H/psi = 1e-6, 1e-8 and 1e-10
        "II-ghost-1e-6": (2.0, 1.4087044144225276, -1.4083708991539006),  # EU_2(iv,vii)
        "II-ghost-1e-8": (2.0, 1.4087044144225276, -1.4083709001439007),  # EU_2(iv,vi.a,vi.b)
        "II-ghost-1e-10": (2.0, 1.4087044144225276, -1.4083709001538007),  # EU_2(ii,vi.b)
        "II-near-III": (1.93, 1.5782623919766807, -1.5969849308969368),  # EU_2(iv)
        "III+": (2.0, 1.409557067016174, -1.4095723999040441),  # EU_3(ii)
        "III-": (2.0, 1.409557067016174, -1.4095723983654793),  # EU_3(i)
    }
    # re-recorded when safeguarded Newton replaced bisection in each bracket
    DIGESTS = {
        "I-beyond": "e3f8f03c787873495b609d8a806b2e99f3004cd3b5cb73a9e53015544b57d958",
        "I-indeterminate": "4d130f1a15d4bee9c15d7bfb593f4a5f97828e1b9acb444eb49976d48c59e242",
        "I-inside": "e4fde180389361d2fb43ff6def24650dbefc68b8ed726354edfca09f79967f7f",
        "I-negative": "9c587d25070332007c7ed037c4d71324dfb6107be34c7e62b2cea4b2c7fd47a6",
        "II-ghost-1e-10": "7f49c3a9486671a726a4fc4116d1dc18df0566b47d8003430a86f6a94784f667",
        "II-ghost-1e-6": "7de19664850b82487034264158516b482152494dc67815170cfbedf5cb2c6fd4",
        "II-ghost-1e-8": "128801360399ff17724165117ccb2f60ba5849c8f449a3b89f0519fe01186d25",
        "II-near-III": "77da26cc466145652887612198b8fef116c14837625c4e832617bcd1c3148a3e",
        "II-small-S": "4afcae027bd24f2a51d503c0eb1d40283684751ded45ad6500e0ec94541d24e3",
        "III+": "a74e589fd28f0b9d906b1e2209c2ca85aabc211040082c4e120410f838c049ed",
        "III-": "8b162bc654afa245733313e98fee9419da3335fde3f330ca5ee4090bd6ce37c6",
        "zero-root": "374ec48a3cf5fc842709498bd1629cb597aa44ce704e2750c16e7de2512d4d29",
    }

    @pytest.mark.parametrize("name", sorted(POINTS))
    def test_records_unchanged(self, pendulum, pendulum_constants, name):
        q, p, wp = self.POINTS[name]
        z = pendulum_state(q, p, wp=wp)
        cubic = cubic_model(pendulum, z, pendulum_constants)
        pred = predict_roots(classify_region(cubic), cubic, pendulum_constants)
        texts = [_roots_text(solve_roots(pendulum, z, pred))]
        for sides in ("both", "pos", "neg"):
            got = solve_roots(
                pendulum, z, pred, extend_to=pendulum_constants.lambda_delta, extend_sides=sides
            )
            texts.append(_roots_text(got))
        # no midpoint solve can meet this tolerance: every searched interval
        # comes back unsearched
        failing = solve_roots(
            pendulum, z, pred, solver_tol=1e-300, extend_to=pendulum_constants.lambda_delta
        )
        texts.append(_roots_text(failing))
        text = f"{pred.case_label}\n" + "\n--\n".join(texts)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name], text

    @pytest.mark.parametrize("keyword", ["sides", "extend_sides"])
    def test_misspelt_side_raises(self, pendulum, pendulum_constants, keyword):
        # EU_1(iv): the only roots lie in the extension annuli
        z, pred = _pinned_point(pendulum, pendulum_constants, "I-beyond")
        ld = pendulum_constants.lambda_delta
        found = solve_roots(pendulum, z, pred, extend_to=ld, **{keyword: "pos"})
        assert found.lambda_plus == pytest.approx(0.089555, abs=1e-6)
        with pytest.raises(ParameterError, match=f"^{keyword} must be both, pos or neg"):
            solve_roots(pendulum, z, pred, extend_to=ld, **{keyword: "positive"})


def _pinned_point(model, constants, name):
    """A TestSolveRootsPinned state with its prediction."""
    q, p, wp = TestSolveRootsPinned.POINTS[name]
    z = pendulum_state(q, p, wp=wp)
    cubic = cubic_model(model, z, constants)
    return z, predict_roots(classify_region(cubic), cubic, constants)


def _two_sided_choice(roots, prediction, sign, policy):
    """What ``step`` takes from a search of both signs: (lambda, flags) or None.

    The flags are (fixed_point, took_ghost, ghost_alongside, scanned,
    beyond_window), as ``StepResult`` has them.
    """
    regular = [r for r in roots.roots if not r.is_ghost and r.lam * sign > 0]
    ghost = [r for r in roots.roots if r.is_ghost and r.lam * sign > 0]
    took_ghost = bool(ghost) and (policy == "follow-ghost" or not regular)
    if not (ghost or regular):
        return None if roots.lambda_zero is None else (0.0, (True, False, False, False, False))
    chosen = min(ghost if took_ghost else regular, key=lambda r: abs(r.lam))
    side = prediction.pos_interval if sign > 0 else prediction.neg_interval
    scanned = chosen.in_window and side == INDETERMINATE
    return chosen.lam, (False, took_ghost, bool(ghost) and not took_ghost, scanned, not chosen.in_window)


class TestBracketedSearch:
    """Safeguarded Newton in each sign-change bracket, and step's one-sided search."""

    DIRECTIONS = (("forward", 1.0), ("backward", -1.0))
    POLICIES = ("default", "follow-ghost")

    def test_at_most_ten_midpoint_solves_per_bracket(
        self, pendulum, pendulum_constants, monkeypatch
    ):
        # bisection to tol_lambda alone took about twenty per bracket
        import semint.constraint as constraint

        solves = [0]
        midpoint_newton, newton = constraint._midpoint_newton, ConstraintCurve.newton

        def counting_solve(*args):
            solves[0] += 1
            return midpoint_newton(*args)

        per_bracket = []

        def counting_newton(self, *args, **kwargs):
            before = solves[0]
            out = newton(self, *args, **kwargs)
            if kwargs.get("tol_lambda") is not None:
                per_bracket.append(solves[0] - before)
            return out

        monkeypatch.setattr(constraint, "_midpoint_newton", counting_solve)
        monkeypatch.setattr(ConstraintCurve, "newton", counting_newton)
        ld = pendulum_constants.lambda_delta
        for name in TestSolveRootsPinned.POINTS:
            z, pred = _pinned_point(pendulum, pendulum_constants, name)
            solve_roots(pendulum, z, pred)
            for sides in ("both", "pos", "neg"):
                solve_roots(pendulum, z, pred, extend_to=ld, extend_sides=sides)
        assert len(per_bracket) >= 50
        assert max(per_bracket) <= 10, sorted(per_bracket)

    def test_step_takes_the_two_sided_choice(self, pendulum, pendulum_scaled, pendulum_constants):
        from semint.errors import StepNonexistenceError
        from semint.trajectory import StepOptions, step

        outcomes = Counter()
        for name in TestSolveRootsPinned.POINTS:
            z, pred = _pinned_point(pendulum, pendulum_constants, name)
            both = solve_roots(pendulum, z, pred, extend_to=pendulum_constants.lambda_delta)
            curve = ConstraintCurve(pendulum, z)
            for direction, sign in self.DIRECTIONS:
                for policy in self.POLICIES:
                    opts = StepOptions(pendulum_scaled, pendulum_constants, policy=policy)
                    want = _two_sided_choice(both, pred, sign, policy)
                    try:
                        got = step(pendulum, z, direction, opts)
                    except StepNonexistenceError:
                        assert want is None, (name, direction, policy)
                        outcomes["none"] += 1
                        continue
                    lam, flags = want
                    assert (got.fixed_point, got.took_ghost, got.ghost_alongside, got.scanned,
                            got.beyond_window) == flags, (name, direction, policy)
                    # the two searches warm-start their midpoint solves differently
                    slope = curve.g_and_derivative(lam)[1] if lam else 0.0
                    tol = max(1e-9, 2e-12 / abs(slope)) if slope else 1e-9
                    assert abs(got.lam - lam) <= tol, (name, direction, policy)
                    outcomes["ghost" if got.took_ghost else "fixed" if got.fixed_point else "step"] += 1
        assert all(outcomes[kind] >= 2 for kind in ("none", "ghost", "fixed", "step")), outcomes

    def test_step_evaluates_g_only_on_its_own_side(
        self, pendulum, pendulum_scaled, pendulum_constants, monkeypatch
    ):
        from semint.errors import StepNonexistenceError
        from semint.trajectory import StepOptions, step

        seen = []
        solve, g_grid = ConstraintCurve._solve, ConstraintCurve.g_grid

        def recording_solve(self, lam):
            seen.append(lam)
            return solve(self, lam)

        def recording_grid(self, lams):
            seen.extend(np.asarray(lams).tolist())
            return g_grid(self, lams)

        monkeypatch.setattr(ConstraintCurve, "_solve", recording_solve)
        monkeypatch.setattr(ConstraintCurve, "g_grid", recording_grid)
        evaluated = 0
        for name in TestSolveRootsPinned.POINTS:
            z, _ = _pinned_point(pendulum, pendulum_constants, name)
            for direction, sign in self.DIRECTIONS:
                for policy in self.POLICIES:
                    seen.clear()
                    try:
                        step(pendulum, z, direction, StepOptions(
                            pendulum_scaled, pendulum_constants, policy=policy))
                    except StepNonexistenceError:
                        pass
                    wrong = [lam for lam in seen if lam * sign < 0]
                    assert not wrong, (name, direction, policy, wrong[:3])
                    evaluated += len(seen)
        assert evaluated > 1000
