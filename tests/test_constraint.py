import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import models
from semint.bounds import derive_constants, estimate_bounds
from semint.constraint import ConstraintCurve, CubicModel, cubic_model, g_derivative, g_eval
from semint.decoupler import solve_midpoint_coords
from semint.errors import DimensionError, EvaluationError, ParameterError
from semint.extphase import ExtendedState

from conftest import DELTA, PEND_RADIUS, henon_heiles_lift, pendulum_state


def sample_box_state(rng, margin=DELTA, wp_span=1.0):
    lim = PEND_RADIUS - margin
    return pendulum_state(
        rng.uniform(-lim, lim), rng.uniform(-lim, lim), wp=rng.uniform(-wp_span, wp_span)
    )


class TestGEval:
    def test_zero_lambda_is_hamiltonian(self, pendulum, rng):
        for _ in range(10):
            z = sample_box_state(rng)
            assert g_eval(pendulum, 0.0, z) == pytest.approx(
                pendulum.value(z.coords), abs=1e-15
            )

    def test_pendulum_balanced_point(self, pendulum):
        # H = 0.5 + 0.5 - 1 = 0
        assert g_eval(pendulum, 0.0, pendulum_state(0.0, 1.0, wp=0.5)) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_oscillator_frozen_value(self):
        m = models.oscillator(1.0)
        wp0 = -0.2
        z = pendulum_state(1.0, 0.0, wp=wp0)
        g = g_eval(m, 0.2, z, tol=1e-14)
        # q_bar = 1/1.01, p_bar = -0.1/1.01 give (q_bar^2 + p_bar^2)/2 exactly
        assert g == pytest.approx(wp0 + 0.495049504950495, abs=1e-13)


class TestGDerivative:
    def test_zero_at_origin_of_lambda(self, pendulum, rng):
        # skew symmetry kills the slope at lambda = 0
        for _ in range(10):
            z = sample_box_state(rng)
            assert abs(g_derivative(pendulum, 0.0, z)) <= 1e-12

    def test_finite_difference_oracle(self, pendulum, rng):
        for _ in range(8):
            z = sample_box_state(rng)
            lam = rng.uniform(-0.1, 0.1)
            dg = g_derivative(pendulum, lam, z, tol=1e-13)
            h = 1e-5
            fd = (g_eval(pendulum, lam + h, z, tol=1e-13) - g_eval(pendulum, lam - h, z, tol=1e-13)) / (
                2 * h
            )
            assert dg == pytest.approx(fd, abs=2e-9)

    def test_quarter_lambda_psi_mid_bound(
        self, pendulum, pendulum_scaled, pendulum_constants, rng
    ):
        # |dg/dlambda + lambda psi(z_bar)/4| <= M1^2 M2^3 |lambda|^3 / 8
        from semint.extphase import sample_fields

        m1, m2 = pendulum_scaled.M1, pendulum_scaled.M2
        ld = pendulum_constants.lambda_delta
        for _ in range(20):
            z = sample_box_state(rng)
            lam = rng.uniform(-ld, ld)
            z_bar, _, _ = solve_midpoint_coords(pendulum, lam, z.coords, tol=1e-13)
            h_mid = sample_fields(pendulum, z_bar).psi
            dg = g_derivative(pendulum, lam, z, tol=1e-13)
            assert abs(dg + 0.25 * lam * h_mid) <= m1**2 * m2**3 * abs(lam) ** 3 / 8.0 + 1e-12


class TestCubicModel:
    def test_model_formula(self):
        cubic = CubicModel(H_k=0.5, psi_k=2.0, psi_prime_k=-3.0, K=1.5, lambda_delta=0.2)
        lam = 0.1
        assert cubic(lam) == pytest.approx(0.5 - 2.0 * 0.01 / 8 + 3.0 * 1e-3 / 24)
        assert cubic.quartic_bound(lam) == pytest.approx(1.5e-4)
        assert cubic.derivative(lam) == pytest.approx(-2.0 * 0.1 / 4 + 3.0 * 0.01 / 8)

    def test_pendulum_reference_point(self, pendulum, pendulum_constants):
        cubic = cubic_model(pendulum, pendulum_state(np.pi / 2, 1.0, wp=0.25), pendulum_constants)
        assert cubic.H_k == pytest.approx(0.75, abs=1e-14)  # wp + 1/2 - cos(pi/2)
        assert cubic.psi_k == pytest.approx(1.0, abs=1e-12)
        assert cubic.psi_prime_k == pytest.approx(-1.0, abs=1e-10)
        assert cubic.K == pendulum_constants.K
        assert cubic.lambda_delta == pendulum_constants.lambda_delta

    def test_equilibrium_is_degenerate(self, pendulum, pendulum_constants):
        cubic = cubic_model(pendulum, pendulum_state(0.0, 0.0, wp=1.0), pendulum_constants)
        assert abs(cubic.psi_k) < 1e-12
        assert abs(cubic.psi_prime_k) < 1e-10

    def test_quartic_envelope_sampled(self, pendulum, pendulum_constants, rng):
        # |g - model| <= K lambda^4 inside the decoupling window
        ld = pendulum_constants.lambda_delta
        for _ in range(50):
            z = sample_box_state(rng)
            lam = rng.uniform(-ld, ld)
            cubic = cubic_model(pendulum, z, pendulum_constants)
            g = g_eval(pendulum, lam, z, tol=1e-13)
            assert abs(g - cubic(lam)) <= cubic.quartic_bound(lam) + 1e-11

    def test_derivative_envelope_sampled(self, pendulum, pendulum_constants, rng):
        # |dg/dlambda - model'| <= 4 K |lambda|^3
        ld = pendulum_constants.lambda_delta
        for _ in range(30):
            z = sample_box_state(rng)
            lam = rng.uniform(-ld, ld)
            cubic = cubic_model(pendulum, z, pendulum_constants)
            dg = g_derivative(pendulum, lam, z, tol=1e-13)
            assert abs(dg - cubic.derivative(lam)) <= 4 * cubic.K * abs(lam) ** 3 + 1e-11


class TestConstraintCurve:
    def test_matches_direct_evaluations(self, pendulum, rng):
        z = sample_box_state(rng)
        curve = ConstraintCurve(pendulum, z, tol=1e-13)
        for lam in (0.0, 0.05, -0.08, 0.11, 0.05):
            assert curve.g(lam) == pytest.approx(g_eval(pendulum, lam, z, tol=1e-13), abs=1e-12)
            val, slope = curve.g_and_derivative(lam)
            assert slope == pytest.approx(g_derivative(pendulum, lam, z, tol=1e-13), abs=1e-10)

    def test_warm_start_does_not_degrade(self, pendulum, rng):
        z = sample_box_state(rng)
        curve = ConstraintCurve(pendulum, z, tol=1e-13)
        lams = np.linspace(-0.1, 0.1, 41)
        cold = [g_eval(pendulum, lam, z, tol=1e-13) for lam in lams]
        warm = [curve.g(lam) for lam in lams]
        assert np.allclose(cold, warm, atol=1e-12)

    def test_rejects_a_tol_that_is_not_positive_and_finite(self, pendulum):
        # tol = inf was taken: the half-Euler start guess passed as the
        # midpoint, and g(0.1) read -0.729930 where the solve gives -0.730742
        z = pendulum_state(0.3, 0.5, wp=0.1)
        for tol in (np.inf, np.nan, 0.0, -1e-13):
            with pytest.raises(ParameterError, match=r"^tol must be finite and positive, got "):
                ConstraintCurve(pendulum, z, tol=tol)
        assert ConstraintCurve(pendulum, z).g(0.1) == pytest.approx(-0.730742, abs=1e-6)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), "0.1"], ids=["nan", "inf", "str"])
    def test_refuses_a_lambda_that_is_no_finite_number(self, pendulum, lam):
        curve = ConstraintCurve(pendulum, pendulum_state(0.3, 0.5, wp=0.1))
        with pytest.raises(ParameterError, match=r"^lambda must be finite, got "):
            curve.g(lam)

    def test_newton_stops_at_a_zero_slope(self, pendulum):
        # g'(0) = 0 exactly, so Newton from lambda = 0 cannot move while g(0) = H != 0
        z = pendulum_state(0.3, 0.5, wp=0.1)
        curve = ConstraintCurve(pendulum, z, tol=1e-13)
        assert curve.derivative(0.0) == 0.0
        lam, val = curve.newton(0.0, -0.1, 0.1, 1e-12, 20)
        assert lam == 0.0
        assert val == curve.g(0.0) != 0.0


class TestWrongShapeGradient:
    """A gradient of the wrong shape is a DimensionError on every g route, and
    a ``grad=`` handed to the curve is checked as the model's own would be."""

    Z = np.array([1.0, 0.0, 0.5, 0.0])

    @pytest.mark.parametrize("grad", [np.ones(5), np.ones((4, 1))], ids=["5", "4x1"])
    def test_model_gradient(self, pendulum, grad):
        from dataclasses import replace

        bad = replace(pendulum, gradient=lambda z: grad, vectorized=False)
        with pytest.raises(DimensionError, match="its gradient has shape"):
            g_eval(bad, 0.1, self.Z)
        curve = ConstraintCurve(bad, self.Z, grad=np.array([0.0, 0.0, 0.5, 1.0]))
        with pytest.raises(DimensionError, match="its gradient has shape"):
            curve.g(0.1)

    @pytest.mark.parametrize(
        "grad, error",
        [(np.ones(6), DimensionError), (np.ones((4, 1)), DimensionError),
         (np.array([np.nan, 0.0, 0.5, 1.0]), EvaluationError)],
        ids=["6", "4x1", "non-finite"],
    )
    def test_grad_handed_in(self, pendulum, grad, error):
        with pytest.raises(error, match="its gradient has shape|gradient is non-finite"):
            ConstraintCurve(pendulum, self.Z, grad=grad)


@functools.lru_cache(maxsize=None)
def _grid_setup(name):
    """(model, state half-width, lambda_delta) of a sampled box about the origin."""
    model, radius, samples = {
        "pendulum": (models.pendulum(), PEND_RADIUS, 17),
        "oscillator": (models.oscillator(1.3), PEND_RADIUS, 9),
        "henon-heiles": (henon_heiles_lift(), 1.0, 3),  # a lift over row-only classical callables
    }[name]
    center = ExtendedState(np.zeros(model.dim), model.n)
    constants = derive_constants(estimate_bounds(model, center, radius, samples).scaled(1.1), DELTA)
    return model, radius - DELTA, constants.lambda_delta


class TestGGrid:
    """The batched grid of the dense scan against the scalar warm-started g."""

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(["pendulum", "oscillator", "henon-heiles"]),
        unit=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
        ends=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        points=st.integers(2, 256),
    )
    def test_grid_matches_scalar_g(self, name, unit, ends, points):
        model, half_width, lambda_delta = _grid_setup(name)
        z = half_width * np.array(unit[: model.dim])
        lams = np.linspace(*sorted(lambda_delta * np.array(ends)), points)
        curve = ConstraintCurve(model, z, tol=1e-13)
        scalar = np.array([curve.g(lam) for lam in lams])
        batched = ConstraintCurve(model, z, tol=1e-13).g_grid(lams)
        assert batched.shape == scalar.shape
        assert np.all(np.abs(batched - scalar) <= 1e-12 * (1.0 + np.abs(scalar)))
        clear = np.abs(scalar) > 1e-12
        assert np.array_equal(np.sign(batched[clear]), np.sign(scalar[clear]))

    def test_grid_leaves_warm_start_history_alone(self, pendulum):
        curve = ConstraintCurve(pendulum, pendulum_state(0.4, 0.8, wp=0.1))
        curve.g(0.05)
        before = (curve._prev, curve._last)
        curve.g_grid(np.linspace(-0.1, 0.1, 9))
        assert (curve._prev, curve._last) == before


def _curve_record(model, coords):
    """One fixed call sequence on a fresh curve, every result as a repr-exact float.

    The calls walk each warm-start branch: no history (half-Euler guess), one
    midpoint behind (that midpoint), two behind (secant), a repeated lambda
    (cached midpoint), a lambda at least 0.5 from the last (half-Euler again)
    and negative lambdas; ``g_eval`` / ``g_derivative`` start cold at z.
    """
    z = np.array(coords)
    curve = ConstraintCurve(model, z, tol=1e-13)
    out = [
        curve.g(0.05),
        curve.g_and_derivative(0.07),
        curve.g_and_derivative(0.08),
        curve.g_and_derivative(0.08),
        curve.midpoint(0.08),
        curve.g(0.04),
        curve.midpoint(0.07),
        curve.g_and_derivative(0.6),
        curve.g(-0.05),
        curve.g_and_derivative(-0.06),
        curve.midpoint(-0.06),
        g_eval(model, 0.05, z, tol=1e-13),
        g_derivative(model, 0.05, z, tol=1e-13),
    ]
    return [np.asarray(x, dtype=float).tolist() for x in out]


# recorded before the lean ConstraintCurve kernel; must stay bitwise
CURVE_DIGESTS = {
    "pendulum": "7c6f0d8bcbee93d04bbdf077f0ad76d7532deff2f718e8929972e934dc1df7e3",
    "henon-heiles": "4b168822b5e79a47453540533d9d3fb3d4d7007d692e6d88a5e6b6170f3b859b",
}


@pytest.mark.parametrize("name", sorted(CURVE_DIGESTS))
def test_curve_sequence_pinned(name):
    model, coords = {
        "pendulum": (models.pendulum(), [0.4, 0.0, 0.8, 0.1]),
        "henon-heiles": (henon_heiles_lift(), [0.1, -0.05, 0.0, 0.2, 0.15, 0.1]),
    }[name]
    record = _curve_record(model, coords)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == CURVE_DIGESTS[name]
