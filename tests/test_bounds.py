import hashlib
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import models
from semint.bounds import (
    RegionBounds,
    _max_norm,
    bounds_from_json,
    bounds_to_json,
    derive_constants,
    estimate_bounds,
)
from semint.errors import EvaluationError, ParameterError
from semint.extphase import (
    ExtendedState,
    eval_gradient,
    eval_hessian,
    finite_difference_model,
    psi_fd_step,
)

from conftest import PEND_RADIUS, henon_heiles_lift, pendulum_analytic_suprema, pendulum_state


class TestDeriveConstants:
    def test_unit_constants_reference(self):
        bounds = RegionBounds(
            M1=1.0, M2=1.0, gamma_H=1.0, N1=1.0, N2=1.0,
            center=pendulum_state(0, 0), radius=1.0,
        )
        c = derive_constants(bounds, 0.5)
        assert c.gamma_z == pytest.approx(3.0)
        assert c.gamma_h == pytest.approx(4.0)
        assert c.K == pytest.approx(0.28125)
        assert c.lambda_delta == pytest.approx(0.375)

    def test_flat_model_guards_division(self):
        bounds = RegionBounds(
            M1=1.0, M2=0.0, gamma_H=0.0, N1=0.0, N2=0.0,
            center=pendulum_state(0, 0), radius=1.0,
        )
        c = derive_constants(bounds, 0.5)
        assert c.K == 0.0
        assert c.lambda_delta == pytest.approx((1 - 0.25) / 2.0)

    def test_delta_validation(self):
        bounds = RegionBounds(
            M1=1.0, M2=1.0, gamma_H=1.0, N1=1.0, N2=1.0,
            center=pendulum_state(0, 0), radius=1.0,
        )
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ParameterError):
                derive_constants(bounds, bad)

    @pytest.mark.parametrize(
        "constants, overflows",
        [({"M1": 1e200}, "gamma_z"), ({"N1": 1e300, "M2": 1e10}, "gamma_h"), ({"M2": 1e110}, "K")],
    )
    def test_non_finite_constant_rejected(self, constants, overflows):
        bounds = RegionBounds(
            **dict(dict(M1=1.0, M2=1.0, gamma_H=1.0, N1=1.0, N2=1.0), **constants),
            center=pendulum_state(0, 0), radius=1.0,
        )
        with pytest.raises(ParameterError, match=f"^{overflows} overflows"):
            derive_constants(bounds, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        m1=st.floats(0.01, 50),
        m2=st.floats(0.0, 50),
        gh=st.floats(0.0, 50),
        n1=st.floats(0.0, 50),
        n2=st.floats(0.0, 50),
        delta=st.floats(0.01, 0.99),
    )
    def test_formulas_exact(self, m1, m2, gh, n1, n2, delta):
        bounds = RegionBounds(
            M1=m1, M2=m2, gamma_H=gh, N1=n1, N2=n2,
            center=pendulum_state(0, 0), radius=1.0,
        )
        c = derive_constants(bounds, delta)
        assert c.gamma_z == 2 * m1 * m2 + m1 * m1
        assert c.gamma_h == n1 * c.gamma_z + m1 * m1 * n2
        assert c.K == (m1 * m1 * m2**3 + 2 * c.gamma_h) / 32.0
        terms = [
            1.0 / m2 if m2 > 0 else np.inf,
            1.0 / gh if gh > 0 else np.inf,
            (1 - (1 - delta) ** 2) / (2 * m1),
        ]
        assert c.lambda_delta == min(terms)
        # deterministic, side-effect free
        again = derive_constants(bounds, delta)
        assert again == c


class TestEstimateBounds:
    def test_pendulum_sampled_below_analytic(self, pendulum):
        center = pendulum_state(0.0, 0.0)
        sampled = estimate_bounds(pendulum, center, 2.0, 33)
        m1, m2, gh, n1, n2 = pendulum_analytic_suprema(2.0)
        assert m1 == pytest.approx(np.sqrt(6.0), abs=1e-3)
        assert m2 == pytest.approx(np.sqrt(2.0), abs=1e-6)
        assert gh == pytest.approx(1.0, abs=1e-6)
        eps = 1e-6
        assert sampled.M1 <= m1 + eps
        assert sampled.M2 <= m2 + eps
        assert sampled.gamma_H <= gh + eps
        assert sampled.N1 <= n1 + eps
        assert sampled.N2 <= n2 * (1 + 1e-6) + 1e-6  # FD psi_zz may overshoot by truncation
        assert sampled.mode == "sampled"
        assert sampled.sample_count == 33 * 33

    def test_scaled_acceptance_bounds_dominate_closed_form(self, pendulum_scaled):
        # the 1.1-scaled 17-per-axis bounds of the |q|, |p| <= 2.5 box, as
        # criterion 1 and the benchmark use them, lie above every true supremum
        b = pendulum_scaled
        sampled = (b.M1, b.M2, b.gamma_H, b.N1, b.N2)
        for name, got, want in zip(("M1", "M2", "gamma_H", "N1", "N2"), sampled,
                                   pendulum_analytic_suprema(PEND_RADIUS)):
            assert got >= want, name

    def test_pendulum_converges_within_two_percent(self, pendulum):
        center = pendulum_state(0.0, 0.0)
        sampled = estimate_bounds(pendulum, center, 2.0, 64)
        m1, m2, gh, n1, n2 = pendulum_analytic_suprema(2.0)
        for got, want in (
            (sampled.M1, m1),
            (sampled.M2, m2),
            (sampled.gamma_H, gh),
            (sampled.N1, n1),
            (sampled.N2, n2),
        ):
            assert got >= 0.98 * want
            assert got <= want * 1.001 + 1e-6

    def test_free_time_constants(self):
        m = models.free_time()
        sampled = estimate_bounds(m, pendulum_state(0.0, 0.0), 1.5, 5)
        assert sampled.M1 == 1.0
        assert sampled.M2 == 0.0
        assert sampled.gamma_H == 0.0
        assert sampled.N1 == 0.0
        assert sampled.N2 == 0.0

    def test_refinement_never_decreases(self, pendulum):
        center = pendulum_state(0.0, 0.0)
        coarse = estimate_bounds(pendulum, center, 2.0, 9)
        fine = estimate_bounds(pendulum, center, 2.0, 17)  # 17 grid contains the 9 grid
        for name in ("M1", "M2", "N1", "N2"):
            assert getattr(fine, name) >= getattr(coarse, name) - 1e-12

    def test_larger_region_never_decreases(self, pendulum):
        center = pendulum_state(0.0, 0.0)
        small = estimate_bounds(pendulum, center, 1.0, 17)
        large = estimate_bounds(pendulum, center, 2.0, 33)  # contains the small grid
        for name in ("M1", "M2", "N1", "N2"):
            assert getattr(large, name) >= getattr(small, name) - 1e-12

    def test_inactive_axes_skipped(self, pendulum):
        sampled = estimate_bounds(pendulum, pendulum_state(0.0, 0.0), 2.0, 9)
        assert sampled.active_axes == (0, 2)  # q and p only for the classical lift

    def test_probe_detects_flat_axes(self, pendulum):
        from dataclasses import replace

        unflagged = replace(pendulum, time_independent=False, wp_affine=False)
        sampled = estimate_bounds(unflagged, pendulum_state(0.0, 0.0), 2.0, 9)
        assert sampled.active_axes == (0, 2)

    def test_deterministic(self, pendulum):
        a = estimate_bounds(pendulum, pendulum_state(0, 0), 2.0, 9)
        b = estimate_bounds(pendulum, pendulum_state(0, 0), 2.0, 9)
        assert (a.M1, a.M2, a.gamma_H, a.N1, a.N2) == (b.M1, b.M2, b.gamma_H, b.N1, b.N2)

    def test_parameter_validation(self, pendulum):
        with pytest.raises(ParameterError):
            estimate_bounds(pendulum, pendulum_state(0, 0), 0.0, 9)
        with pytest.raises(ParameterError):
            estimate_bounds(pendulum, pendulum_state(0, 0), 1.0, 2)


def _hh_center():
    return ExtendedState.from_parts([0.05, -0.1], 0.0, [0.3, 0.1], 0.0)


class TestPinnedBounds:
    """Exact outputs recorded before psi differencing was batched.

    Batching and skipping the t / wp axes must not move a single bit of the
    five sampled constants, so these compare with ``==``.
    """

    @staticmethod
    def _constants(b):
        return (b.M1, b.M2, b.gamma_H, b.N1, b.N2)

    def test_flagged_pendulum(self, pendulum):
        b = estimate_bounds(pendulum, pendulum_state(0.0, 0.0), 2.0, 9)
        assert b.active_axes == (0, 2)
        assert self._constants(b) == (
            2.4484681432071405, 1.4142135623730951, 0.9737680764296907,
            4.698725200487292, 6.0811811613059295,
        )

    def test_unflagged_pendulum(self, pendulum):
        unflagged = replace(pendulum, time_independent=False, wp_affine=False)
        b = estimate_bounds(unflagged, pendulum_state(0.0, 0.0), 2.0, 9)
        assert b.active_axes == (0, 2)
        assert self._constants(b) == (
            2.4484681432071405, 1.4142135623730951, 0.9737680764296907,
            4.698725200487292, 6.0811811613059295,
        )

    def test_finite_difference_pendulum(self, pendulum):
        # no flags: psi is differenced along all four axes, and the probe
        # keeps wp active because the differenced dH/dwp carries rounding
        fd = finite_difference_model(1, pendulum.value)
        b = estimate_bounds(fd, pendulum_state(0.3, -0.2, wp=0.1), 1.0, 3)
        assert b.active_axes == (0, 2, 3)
        assert self._constants(b) == (
            1.835332225084129, 1.3829959430487937, 0.6878386751193136,
            2.5197842501366265, 18501.352287510017,
        )

    def test_two_dof_lift(self):
        b = estimate_bounds(henon_heiles_lift(), _hh_center(), 0.4, 3)
        assert b.active_axes == (0, 1, 3, 4)
        assert b.sample_count == 81
        assert self._constants(b) == (
            1.5583825749795843, 2.7604347483684526, 2.8284271247461903,
            6.068096756921769, 15.347996387808903,
        )


def _bounds_digest(b):
    fields = (b.M1, b.M2, b.gamma_H, b.N1, b.N2, b.active_axes, b.sample_count)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


class TestBoundsDigests:
    """SHA-256 of the sampled constants on the boxes the benchmark runs use.

    Recorded before the lift and the M1 / M2 grid were evaluated as stacks;
    a change in the last bit of any constant changes the digest.
    """

    def test_two_dof_run_box(self):
        center = ExtendedState.from_parts([0.0, 0.0], 0.0, [0.0, 0.0], 0.0)
        b = estimate_bounds(henon_heiles_lift(), center, 0.6, 5)
        assert _bounds_digest(b) == (
            "37fb5e9fda6efca1b4375a373a897dff10b5a9fdf6e35f9d1ed031d3edd8fbcb"
        )

    def test_pendulum_acceptance_box(self, pendulum_bounds):
        assert _bounds_digest(pendulum_bounds) == (
            "21e1b01c129474b126faca09eb39773241fe595a6c50ea3152c0247be5c2addf"
        )


class TestStackedNorms:
    """The stacked M1 / M2 / N1 / N2 maxima against per-row norm loops, bit for bit."""

    @pytest.mark.parametrize("d", [4, 6, 36])
    def test_max_norm_matches_the_norm_loop(self, d, rng):
        rows = rng.standard_normal((30, d))
        rows[0], rows[1] = 0.0, -0.0
        rows[2] = 1e-300 * rng.standard_normal(d)
        rows[3, 0] = 1e150
        for stack in (rows, rows[4:], np.asfortranarray(rows[4:]), np.ascontiguousarray(rows.T).T):
            want = 0.0
            for row in stack:
                want = max(want, float(np.linalg.norm(row)))
            assert _max_norm(stack) == want

    def test_m1_m2_match_the_per_point_loop(self):
        model = henon_heiles_lift()
        b = estimate_bounds(model, _hh_center(), 0.4, 3)
        c, r = _hh_center().coords, 0.4
        grids = [np.linspace(c[i] - r, c[i] + r, 3) if i in b.active_axes else [c[i]]
                 for i in range(model.dim)]
        m1 = m2 = 0.0
        for z in itertools.product(*grids):
            z = np.array(z)
            m1 = max(m1, float(np.linalg.norm(eval_gradient(model, z))))
            m2 = max(m2, float(np.linalg.norm(eval_hessian(model, z))))
        assert (b.M1, b.M2) == (m1, m2)


class TestEstimateBoundsCost:
    def test_model_evaluations_per_point(self):
        """Count guard: one batched stencil per grid point, no per-probe loop.

        Each point costs one gradient and one Hessian for M1 / M2, and its
        stencil (the point and its +-step neighbours on the active axes)
        needs psi at +-h along every differenced axis, one gradient and one
        Hessian each: 2 + 2 * 2 * (1 + 2 * |active|) * |fd axes| = 146 for
        the n = 2 lift (the per-probe loop it replaced made 218).
        """
        lift = henon_heiles_lift()
        calls = {"n": 0}

        def counted(fn):
            def wrapper(z):
                calls["n"] += 1
                return fn(z)

            return wrapper

        model = replace(lift, gradient=counted(lift.gradient), hessian=counted(lift.hessian))
        b = estimate_bounds(model, _hh_center(), 0.4, 3)
        active = len(b.active_axes)
        fd_axes = 4  # both flags declared: t and wp are not differenced
        per_point = 2 + 2 * 2 * (1 + 2 * active) * fd_axes
        assert per_point == 146
        assert calls["n"] <= per_point * b.sample_count

    def test_evaluation_error_in_stencil_carries_point(self):
        # the Hessian turns asymmetric just beyond the box edge x = 0.45,
        # which only the psi probes around edge points reach; the first is
        # the +x probe of the first edge point in grid order
        lift = henon_heiles_lift()
        c, r = _hh_center().coords, 0.4

        def hessian(z):
            h = lift.hessian(z)
            if z[0] > c[0] + r + 5e-6:
                h[0, 1] += 1.0
            return h

        with pytest.raises(EvaluationError, match="not symmetric") as err:
            estimate_bounds(replace(lift, hessian=hessian, vectorized=False), _hh_center(), r, 3)
        edge = np.array([c[0] + r, c[1] - r, c[2], c[3] - r, c[4] - r, c[5]])
        probe = edge.copy()
        probe[0] += psi_fd_step(edge)
        assert np.array_equal(err.value.z, probe)


class TestRegionBounds:
    def _bounds(self):
        return RegionBounds(
            M1=2.0, M2=1.0, gamma_H=1.0, N1=1.0, N2=1.0,
            center=pendulum_state(0.0, 0.0), radius=2.0, active_axes=(0, 2),
        )

    def test_scaled(self):
        b = self._bounds().scaled(1.1)
        assert b.M1 == pytest.approx(2.2)
        assert b.safety == pytest.approx(1.1)
        assert b.radius == 2.0  # geometry untouched

    @pytest.mark.parametrize("name", ["M1", "M2", "gamma_H", "N1", "N2", "radius"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ParameterError, match=name):
            replace(self._bounds(), **{name: value})

    @pytest.mark.parametrize(
        "field, value, says",
        [
            ("safety", -3.0, "safety must be finite and positive"),
            ("safety", np.inf, "safety must be finite and positive"),
            ("sample_count", -5, "sample_count must be a whole number"),
            ("sample_count", 2.5, "sample_count must be a whole number"),
            ("sample_count", True, "sample_count must be a whole number"),
            ("active_axes", (0, 7), "active_axes must be distinct integer axes"),
            ("active_axes", (0, "x"), "active_axes must be distinct integer axes"),
            ("active_axes", (0, True), "active_axes must be distinct integer axes"),
            ("active_axes", (2, 0, 2), "active_axes must be distinct integer axes"),
            ("active_axes", (-1,), "active_axes must be distinct integer axes"),
        ],
    )
    def test_rejects_bad_bookkeeping_field(self, field, value, says):
        with pytest.raises(ParameterError, match=says):
            replace(self._bounds(), **{field: value})

    @pytest.mark.parametrize(
        "edit, error, says",
        [
            ({"n": 1.5}, ValueError, "n must be a whole number"),
            ({"sample_count": 1.5}, ValueError, "sample_count must be a whole number"),
            ({"sample_count": "9"}, ValueError, "sample_count must be a whole number"),
            ({"sample_count": -5}, ParameterError, "sample_count must be a whole number"),
            ({"safety": -3}, ParameterError, "safety must be finite and positive"),
            ({"active_axes": [0, 7, "x"]}, ParameterError, "active_axes must be distinct"),
        ],
        ids=["n-fractional", "sample-count-fractional", "sample-count-string",
             "sample-count-negative", "safety-negative", "active-axes-out-of-range"],
    )
    def test_json_rejects_bad_bookkeeping_field(self, edit, error, says):
        doc = dict(json.loads(bounds_to_json(self._bounds())), **edit)
        with pytest.raises(error, match=says):
            bounds_from_json(json.dumps(doc))

    def test_numpy_integers_round_trip_as_ints(self):
        b = replace(self._bounds(), sample_count=np.int64(81),
                    active_axes=tuple(np.flatnonzero([1, 0, 1, 0])))
        back = bounds_from_json(bounds_to_json(b))
        for got in (b, back):
            assert got.sample_count == 81 and type(got.sample_count) is int
            assert got.active_axes == (0, 2) and all(type(i) is int for i in got.active_axes)

    def test_json_reads_whole_float_counts(self):
        doc = dict(json.loads(bounds_to_json(self._bounds())), n=1.0, sample_count=81.0)
        back = bounds_from_json(json.dumps(doc))
        assert back.center.n == 1 and back.sample_count == 81

    def test_contains_ball_active_axes_only(self):
        b = self._bounds()
        assert b.contains_ball(pendulum_state(1.0, -1.0, wp=99.0, t=50.0), 1.0)
        assert not b.contains_ball(pendulum_state(1.5, 0.0), 1.0)

    def test_json_roundtrip(self):
        b = self._bounds().scaled(1.05)
        back = bounds_from_json(bounds_to_json(b))
        assert back.M1 == b.M1
        assert back.active_axes == b.active_axes
        assert back.safety == b.safety
        assert np.array_equal(back.center.coords, b.center.coords)
        # the payload is plain JSON with the documented field names
        doc = json.loads(bounds_to_json(b))
        for key in ("M1", "M2", "gamma_H", "N1", "N2", "center", "radius", "sample_count", "mode"):
            assert key in doc
