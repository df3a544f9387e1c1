import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import models
from semint.bounds import RegionBounds
from semint.decoupler import (
    KantorovichReport,
    kantorovich_report,
    midpoint_sensitivity,
    solve_midpoint_coords,
    solve_midpoints,
)
from semint.errors import (
    DimensionError,
    EvaluationError,
    LinearSolveError,
    NonconvergenceError,
    ParameterError,
)
from semint.extphase import (
    ClassicalModel,
    ExtendedState,
    apply_J,
    autonomize,
    eval_gradient,
    eval_hessian,
    eval_value,
)

from conftest import DELTA, PEND_RADIUS, henon_heiles_lift, pendulum_state


class TestSolveMidpoint:
    def test_lambda_zero_is_identity(self, pendulum):
        z = pendulum_state(0.7, -0.3, wp=0.9)
        z_bar, iterations, residual = solve_midpoint_coords(pendulum, 0.0, z.coords)
        assert np.array_equal(z_bar, z.coords)
        assert np.array_equal(2.0 * z_bar - z.coords, z.coords)
        assert iterations <= 1
        assert residual == 0.0

    def test_oscillator_closed_form(self):
        # linear system: q_bar = (q + lam p/2)/(1 + lam^2/4) etc.
        m = models.oscillator(1.0)
        z = np.array([1.0, 0.0, 0.0, 0.25])
        z_bar, _, _ = solve_midpoint_coords(m, 0.2, z, tol=1e-14)
        assert z_bar[0] == pytest.approx(1.0 / 1.01, abs=1e-13)
        assert z_bar[2] == pytest.approx(-0.1 / 1.01, abs=1e-13)
        assert z_bar[1] == pytest.approx(0.1, abs=1e-14)
        assert z_bar[3] == 0.25

    def test_oscillator_closed_form_random(self, rng):
        m = models.oscillator(1.3)
        for _ in range(10):
            z = np.array(
                [rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-2, 2), rng.uniform(-1, 1)]
            )
            lam = rng.uniform(-0.4, 0.4)
            z_bar, _, _ = solve_midpoint_coords(m, lam, z, tol=1e-14)
            assert np.allclose(z_bar, models.oscillator_midpoint(z, lam, 1.3), atol=1e-12)

    def test_pendulum_wp_frozen(self, pendulum, rng):
        # the pendulum lift has dH/dt = 0, so wp never moves
        for _ in range(10):
            z = pendulum_state(rng.uniform(-2, 2), rng.uniform(-2, 2), wp=rng.uniform(-1, 1))
            lam = rng.uniform(-0.1, 0.1)
            z_bar, _, _ = solve_midpoint_coords(pendulum, lam, z.coords, tol=1e-13)
            assert abs(z_bar[3] - z.wp) < 1e-15

    def test_state_and_its_coords_give_the_same_bits(self, pendulum):
        from conftest import henon_heiles_lift

        for model, z in (
            (pendulum, pendulum_state(0.7, -0.3, wp=0.9)),
            (henon_heiles_lift(), ExtendedState.from_parts([0.1, -0.2], 0.0, [0.3, 0.05], 0.4)),
        ):
            z_bar, it, res = solve_midpoint_coords(model, 0.08, z, tol=1e-13)
            ref, it_ref, res_ref = solve_midpoint_coords(model, 0.08, z.coords, tol=1e-13)
            assert z_bar.tobytes() == ref.tobytes() and (it, res) == (it_ref, res_ref)

    def test_midpoint_identity(self, pendulum, rng):
        # the partner 2 z_bar - z satisfies z_partner - z = lambda J H_z(z_bar)
        for _ in range(10):
            z = pendulum_state(rng.uniform(-2, 2), rng.uniform(-2, 2), wp=rng.uniform(-1, 1))
            lam = rng.uniform(-0.11, 0.11)
            z_bar, _, _ = solve_midpoint_coords(pendulum, lam, z.coords, tol=1e-13)
            lhs = (2.0 * z_bar - z.coords) - z.coords
            rhs = lam * apply_J(eval_gradient(pendulum, z_bar))
            assert np.allclose(lhs, rhs, atol=5e-13)

    def test_time_reversal(self, pendulum, rng):
        for _ in range(10):
            z = pendulum_state(rng.uniform(-2, 2), rng.uniform(-2, 2), wp=rng.uniform(-1, 1))
            lam = rng.uniform(-0.11, 0.11)
            z_bar, _, _ = solve_midpoint_coords(pendulum, lam, z.coords, tol=1e-13)
            back, _, _ = solve_midpoint_coords(pendulum, -lam, 2.0 * z_bar - z.coords, tol=1e-13)
            assert np.allclose(back, z_bar, atol=1e-11)

    def test_singular_jacobian_raises(self, pendulum, pendulum_scaled):
        # at q = pi the midpoint Jacobian 1 + lam^2 cos(q)/4 degenerates at lam = 2;
        # the flagged pendulum takes the closed-form (q, p) solve, the
        # unflagged one np.linalg.solve
        z = pendulum_state(np.pi, 0.0, wp=-1.0)
        for model in (pendulum, replace(pendulum, time_independent=False)):
            with pytest.raises(LinearSolveError):
                solve_midpoint_coords(model, 2.0, z.coords)
            with pytest.raises(LinearSolveError):
                midpoint_sensitivity(model, 2.0, z)
            with pytest.raises(LinearSolveError):
                kantorovich_report(model, 2.0, z, pendulum_scaled, delta=DELTA)

    def test_nan_gradient_raises_on_closed_form_path(self, pendulum):
        broken = replace(pendulum, gradient=lambda z: np.array([np.nan, 0.0, z[2], 1.0]))
        with pytest.raises(EvaluationError, match="gradient"):
            solve_midpoint_coords(broken, 0.1, pendulum_state(0.5, 0.2).coords)

    def test_nonconvergence_carries_residual(self, pendulum):
        z = pendulum_state(0.5, 1.0, wp=0.0)
        with pytest.raises(NonconvergenceError) as err:
            solve_midpoint_coords(pendulum, 0.1, z.coords, max_iter=0)
        assert err.value.residual > 0

    def test_rejects_wrong_dimension(self, pendulum):
        for z in (np.zeros(6), np.zeros(3), np.zeros((1, 4))):
            with pytest.raises(DimensionError):
                solve_midpoint_coords(pendulum, 0.1, z)

    def test_rejects_bad_tol(self, pendulum):
        with pytest.raises(ParameterError):
            solve_midpoint_coords(pendulum, 0.1, pendulum_state(0, 0).coords, tol=0.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_every_midpoint_function_rejects_a_non_finite_lambda(self, pendulum, lam):
        # kantorovich_report and midpoint_sensitivity raised LinearSolveError
        # (or a numpy warning) here instead of the solves' ParameterError
        z = np.array([0.3, 0.0, 0.2, 0.1])
        bounds = RegionBounds(M1=2.0, M2=2.0, gamma_H=1.0, N1=1.0, N2=1.0,
                              center=ExtendedState(z, 1), radius=1.0)
        z2 = np.array([0.0, 0.1, 0.0, 0.35, 0.1, 0.3])
        calls = [
            lambda: solve_midpoint_coords(pendulum, lam, z),
            lambda: kantorovich_report(pendulum, lam, ExtendedState(z, 1), bounds),
            lambda: midpoint_sensitivity(pendulum, lam, z),
            lambda: midpoint_sensitivity(henon_heiles_lift(), lam, z2),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match="lambda must be finite"):
                call()

    BAD_ARGUMENTS = {
        # (function, lambda, keyword arguments); each went through or raised a raw error
        "coords-negative-max-iter": ("coords", 0.1, {"max_iter": -1}),
        "grid-negative-max-iter": ("grid", [0.1, 0.2], {"max_iter": -1}),
        "coords-fractional-max-iter": ("coords", 0.1, {"max_iter": 2.5}),
        "grid-fractional-max-iter": ("grid", [0.1, 0.2], {"max_iter": 2.5}),
        "coords-bool-max-iter": ("coords", 0.1, {"max_iter": True}),
        "coords-infinite-tol": ("coords", 0.1, {"tol": math.inf}),
        "grid-infinite-tol": ("grid", [0.1, 0.2], {"tol": math.inf}),
        "grid-of-rows": ("grid", [[0.1, 0.2]], {}),
        "grid-scalar": ("grid", 0.1, {}),
        "coords-array-lambda": ("coords", np.array([0.1, 0.2]), {}),
        "coords-one-entry-lambda": ("coords", np.array([0.1]), {}),
        "sensitivity-array-lambda": ("sensitivity", np.array([0.1, 0.2]), {}),
        "sensitivity-str-lambda": ("sensitivity", "0.1", {}),
        "kantorovich-array-lambda": ("kantorovich", np.array([0.1, 0.2]), {}),
    }

    @pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
    def test_one_argument_rule(self, pendulum, case):
        # lambda a finite number (a 1-D sequence of them for the grid), tol
        # positive and finite, max_iter a whole number >= 0
        kind, lam, kwargs = self.BAD_ARGUMENTS[case]
        z = np.array([0.3, 0.0, 0.5, 0.1])
        bounds = RegionBounds(M1=2.0, M2=2.0, gamma_H=1.0, N1=1.0, N2=1.0,
                              center=ExtendedState(z, 1), radius=1.0)
        call = {
            "coords": lambda: solve_midpoint_coords(pendulum, lam, z, **kwargs),
            "grid": lambda: solve_midpoints(pendulum, lam, z, **kwargs),
            "sensitivity": lambda: midpoint_sensitivity(pendulum, lam, z),
            "kantorovich": lambda: kantorovich_report(pendulum, lam, ExtendedState(z, 1), bounds),
        }[kind]
        with pytest.raises(ParameterError):
            call()

    def test_whole_max_iter_of_any_integer_type(self, pendulum):
        z = np.array([0.3, 0.0, 0.5, 0.1])
        ref = solve_midpoint_coords(pendulum, 0.1, z)[0]
        for max_iter in (np.int64(50), 50):
            assert solve_midpoint_coords(pendulum, 0.1, z, max_iter=max_iter)[0].tobytes() == ref.tobytes()
            assert solve_midpoints(pendulum, [0.1], z, max_iter=max_iter)[0].tobytes() == ref.tobytes()


def _t_capped(model, stacked):
    """The model with a NaN gradient wherever t > 0.04 (rows with lambda > 0.08)."""

    def gradient(z):
        g = np.array(model.gradient(z))
        g[z[..., 1] > 0.04] = np.nan  # a 0-d mask on one state selects all of it
        return g

    return replace(model, gradient=gradient, vectorized=stacked)


class TestWrongShapeHessian:
    """A Hessian whose shape is not (dim, dim) is a DimensionError in every
    public midpoint function: the closed form would otherwise read four of
    its entries and return a midpoint, the LU path raise numpy's own error."""

    Z = [1.0, 0.0, 0.5, 0.0]

    @pytest.mark.parametrize(
        "hess, symmetric",
        [(np.eye(3), True), (np.ones((4, 3)), True), (np.ones((4, 3)), False), (np.eye(5), True)],
        ids=["3x3", "4x3", "4x3-unchecked-symmetry", "5x5"],
    )
    def test_one_dof_lift(self, pendulum, hess, symmetric):
        bad = replace(pendulum, hessian=lambda z: hess, vectorized=False, hessian_symmetric=symmetric)
        with pytest.raises(DimensionError, match="its hessian has shape"):
            solve_midpoint_coords(bad, 0.1, self.Z, 1e-13, 50)
        with pytest.raises(DimensionError, match="its hessian has shape"):
            midpoint_sensitivity(bad, 0.1, self.Z)

    @pytest.mark.parametrize("hess", [np.eye(5), np.ones((6, 5))], ids=["5x5", "6x5"])
    def test_two_dof_lift(self, hess):
        model = models.free_time(2)
        bad = replace(model, hessian=lambda z: hess, vectorized=False)
        z = ExtendedState(np.array([0.3, 0.2, 0.0, 0.1, -0.2, 0.0]), 2)
        bounds = RegionBounds(M1=2.0, M2=2.0, gamma_H=1.0, N1=1.0, N2=1.0, center=z, radius=1.0)
        with pytest.raises(DimensionError, match="its hessian has shape"):
            solve_midpoint_coords(bad, 0.05, z)
        with pytest.raises(DimensionError, match="its hessian has shape"):
            midpoint_sensitivity(bad, 0.05, z)
        with pytest.raises(DimensionError, match="its hessian has shape"):
            kantorovich_report(bad, 0.05, z, bounds)


def _entry_nan_beyond(model, entries, axis, edge):
    """The model with NaN at the Hessian ``entries`` wherever z[axis] > edge."""

    def hessian(z):
        h = np.array(model.hessian(z), dtype=float)
        if z[axis] > edge:
            for i, j in entries:
                h[i, j] = np.nan
        return h

    return replace(model, hessian=hessian, vectorized=False)


class TestNonFiniteHessianEntry:
    """Every Hessian entry the midpoint kernels meet is judged, not only those
    their floats read: the error is ``model hessian is non-finite`` at the
    midpoint iterate whose Hessian holds it, raised before a step is taken."""

    def test_entry_the_closed_form_never_reads(self, pendulum):
        # H[t, t] is not one of the four (q, p) entries of the 2x2 solve
        bad = _entry_nan_beyond(pendulum, [(1, 1)], 0, 0.3001)
        with pytest.raises(EvaluationError, match="model hessian is non-finite") as err:
            solve_midpoint_coords(bad, 0.1, [0.3, 0.0, 0.5, 0.0])
        assert err.value.z[0] > 0.3001

    def test_symmetric_pair_on_the_lu_path(self):
        bad = _entry_nan_beyond(henon_heiles_lift(), [(0, 1), (1, 0)], 1, 0.1001)
        with pytest.raises(EvaluationError, match="model hessian is non-finite") as err:
            solve_midpoint_coords(bad, 0.1, [0.0, 0.1, 0.0, 0.35, 0.1, 0.3])
        want = [0.01745, 0.10477, 0.05, 0.34895, 0.09531, 0.3]
        assert np.allclose(err.value.z, want, atol=1e-5)

    def test_inf_entries_an_lu_solve_divides_away(self):
        # with inf on its diagonal f_zbar's LU solve returns a finite (zero)
        # sensitivity, so no Newton float can stand in for the entry check
        model = henon_heiles_lift()
        bad = replace(model, hessian=lambda z: np.diag(np.full(6, np.inf)), vectorized=False)
        z = np.array([0.0, 0.1, 0.0, 0.35, 0.1, 0.3])
        bounds = RegionBounds(M1=2.0, M2=2.0, gamma_H=1.0, N1=1.0, N2=1.0,
                              center=ExtendedState(z, 2), radius=1.0)
        calls = [lambda: solve_midpoint_coords(bad, 0.1, z)]
        for lam in (0.0, 0.1):
            calls.append(lambda lam=lam: midpoint_sensitivity(bad, lam, z))
            calls.append(lambda lam=lam: kantorovich_report(bad, lam, ExtendedState(z, 2), bounds))
        for call in calls:
            with pytest.raises(EvaluationError, match="model hessian is non-finite"):
                call()

    def test_finite_entries_whose_numpy_sum_overflows(self, pendulum):
        # a verdict that moved: near DBL_MAX in the t and wp rows, which the
        # n = 1 closed form never reads, numpy's 8-lane sum of the 16 entries
        # overflows (the numpy-sum rule rejected them) and the left-to-right
        # float sum does not; the boundary and the kernels take one rule
        big = np.zeros((4, 4))
        for (i, j), v in {(0, 3): 1e308, (1, 3): 1e308, (1, 2): -1e308, (2, 3): -1e308}.items():
            big[i, j] = big[j, i] = v
        model = replace(pendulum, hessian=lambda z: pendulum.hessian(z) + big, vectorized=False)
        z = np.array([0.3, 0.0, 0.5, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(model.hessian(z).sum())
        assert eval_hessian(model, z).tobytes() == model.hessian(z).tobytes()
        z_bar, _, _ = solve_midpoint_coords(model, 0.1, z)
        assert z_bar.tobytes() == solve_midpoint_coords(pendulum, 0.1, z)[0].tobytes()
        got = midpoint_sensitivity(model, 0.1, z_bar)
        assert got.tobytes() == midpoint_sensitivity(pendulum, 0.1, z_bar).tobytes()

class TestWrongShapeGradient:
    """A gradient whose shape is not (dim,), from the model or handed in as
    ``grad=``, is a DimensionError in both Newton cores and in
    ``midpoint_sensitivity``: the n = 1 core would otherwise fail to unpack
    it, the general-n core and the sensitivity raise numpy's own error."""

    Z = [1.0, 0.0, 0.5, 0.0]
    Z2 = [0.1, 0.2, 0.0, 0.1, -0.2, 0.0]

    @pytest.mark.parametrize("grad", [np.ones(5), np.ones((4, 1))], ids=["5", "4x1"])
    def test_one_dof_core(self, pendulum, grad):
        bad = replace(pendulum, gradient=lambda z: grad, vectorized=False)
        expected = f"model has dimension 4; its gradient has shape {grad.shape}, expected (4,)"
        with pytest.raises(DimensionError) as err:
            solve_midpoint_coords(bad, 0.1, self.Z)
        assert str(err.value) == expected

    @pytest.mark.parametrize("grad", [np.ones(7), np.ones(5)], ids=["7", "5"])
    def test_general_core(self, grad):
        bad = replace(henon_heiles_lift(), gradient=lambda z: grad, vectorized=False)
        with pytest.raises(DimensionError, match=r"its gradient has shape .*, expected \(6,\)"):
            solve_midpoint_coords(bad, 0.05, self.Z2)

    @pytest.mark.parametrize("grad", [np.ones(5), np.ones((4, 1)), np.ones(3)], ids=["5", "4x1", "3"])
    def test_sensitivity_grad_one_dof(self, pendulum, grad):
        with pytest.raises(DimensionError, match="its gradient has shape"):
            midpoint_sensitivity(pendulum, 0.1, self.Z, grad=grad)

    def test_sensitivity_grad_general(self):
        with pytest.raises(DimensionError, match="its gradient has shape"):
            midpoint_sensitivity(henon_heiles_lift(), 0.05, self.Z2, grad=np.ones(7))


class TestSolveMidpoints:
    """The masked batched Newton raises what the scalar solve raises."""

    def test_rows_match_scalar_solves(self, pendulum):
        z = pendulum_state(0.9, -0.6, wp=0.2).coords
        lams = np.linspace(-0.12, 0.12, 33)
        for model in (pendulum, replace(pendulum, vectorized=False, time_independent=False)):
            rows = solve_midpoints(model, lams, z, tol=1e-13)
            for lam, row in zip(lams, rows):
                ref, _, _ = solve_midpoint_coords(model, lam, z, tol=1e-13)
                assert np.max(np.abs(row - ref)) <= 1e-14

    def test_empty_grid(self, pendulum):
        assert solve_midpoints(pendulum, [], np.zeros(4)).shape == (0, 4)

    def test_singular_row_raises(self, pendulum):
        # at q = pi the midpoint Jacobian degenerates at lambda = 2 (as for the
        # scalar solve); the lambda = 0 row has frozen before the singular row is met
        z = pendulum_state(np.pi, 0.0, wp=-1.0).coords
        for model in (pendulum, replace(pendulum, vectorized=False)):
            with pytest.raises(LinearSolveError, match="lambda=2"):
                solve_midpoints(model, [0.0, 1.5, 1.9, 2.0, 2.1], z)

    def test_max_iter_raises_nonconvergence(self, pendulum):
        z = pendulum_state(0.5, 1.0, wp=0.0).coords
        with pytest.raises(NonconvergenceError) as err:
            solve_midpoints(pendulum, [0.0, 0.05, 0.1], z, max_iter=1)
        assert err.value.iterations == 1 and err.value.residual > 1e-12
        with pytest.raises(NonconvergenceError):
            solve_midpoint_coords(pendulum, 0.05, z, max_iter=1)

    def test_nan_gradient_names_the_row(self, pendulum):
        z = pendulum_state(0.5, 0.2).coords
        lams = np.array([0.0, 0.05, 0.07, 0.09, 0.11])
        for stacked in (True, False):
            with pytest.raises(EvaluationError, match="gradient is non-finite") as err:
                solve_midpoints(_t_capped(pendulum, stacked), lams, z)
            # after one Newton step row k sits at t = lambda_k / 2
            assert err.value.z[1] == pytest.approx(0.045, abs=1e-15)

    def test_wrong_declared_shape_raises(self, pendulum):
        # declares stacks but answers for the first row only
        broken = replace(pendulum, gradient=lambda z: pendulum.gradient(z[0]))
        with pytest.raises(DimensionError):
            solve_midpoints(broken, [0.01, 0.02], pendulum_state(0.5, 0.2).coords)

    def test_rejects_wrong_dimension(self, pendulum):
        # as solve_midpoint_coords does: a short state raised IndexError, a
        # (1, 4) one was tiled and solved
        for z in (np.zeros(6), np.zeros(3), np.zeros((1, 4))):
            with pytest.raises(DimensionError, match="state has shape"):
                solve_midpoints(pendulum, [0.1], z)

    def test_rejects_bad_arguments(self, pendulum):
        with pytest.raises(ParameterError):
            solve_midpoints(pendulum, [0.1, np.nan], np.zeros(4))
        with pytest.raises(ParameterError):
            solve_midpoints(pendulum, [0.1], np.zeros(4), tol=0.0)


class TestKantorovich:
    def test_lambda_zero(self, pendulum, pendulum_scaled):
        z = pendulum_state(0.2, 0.3, wp=0.1)
        rep = kantorovich_report(pendulum, 0.0, z, pendulum_scaled, delta=DELTA)
        assert rep.eta == 0.0
        assert rep.alpha == 0.0
        assert rep.r_minus == 0.0
        assert rep.beta == 2.0 and rep.gamma == 0.5
        assert rep.guaranteed

    def test_lambda_delta_reference_value(self, pendulum):
        # user-supplied constants M1 = sqrt(6), M2 = 1, gamma_H = 1, delta = 1/2
        # give lambda_delta = 0.75 / (2 sqrt(6)) ~ 0.1531
        bounds = RegionBounds(
            M1=np.sqrt(6.0),
            M2=1.0,
            gamma_H=1.0,
            N1=0.0,
            N2=0.0,
            center=pendulum_state(0, 0),
            radius=2.0,
        )
        rep = kantorovich_report(pendulum, 0.01, pendulum_state(0, 0), bounds, delta=0.5)
        assert rep.lambda_delta == pytest.approx(0.15309310892394862, abs=1e-15)

    def test_guaranteed_inside_window(self, pendulum, pendulum_scaled, pendulum_constants, rng):
        ld = pendulum_constants.lambda_delta
        for _ in range(25):
            z = pendulum_state(
                rng.uniform(-(PEND_RADIUS - DELTA), PEND_RADIUS - DELTA),
                rng.uniform(-(PEND_RADIUS - DELTA), PEND_RADIUS - DELTA),
                wp=rng.uniform(-1, 1),
            )
            lam = rng.uniform(-ld, ld)
            rep = kantorovich_report(pendulum, lam, z, pendulum_scaled, delta=DELTA)
            assert rep.guaranteed
            assert rep.alpha < 0.5
            assert rep.r_minus <= rep.r_plus
            z_bar, _, _ = solve_midpoint_coords(pendulum, lam, z.coords, tol=1e-12)
            assert np.linalg.norm(z_bar - z.coords) <= rep.r_minus + 1e-12

    def test_not_guaranteed_when_ball_leaves_box(self, pendulum, pendulum_scaled):
        # a point at the box edge cannot carry the certificate ball
        edge = pendulum_state(PEND_RADIUS, 0.0)
        rep = kantorovich_report(pendulum, 0.1, edge, pendulum_scaled, delta=DELTA)
        assert not rep.guaranteed

    def test_alpha_above_half_is_report_not_error(self, pendulum, pendulum_scaled):
        z = pendulum_state(0.5, 2.0, wp=0.0)
        rep = kantorovich_report(pendulum, 1.4, z, pendulum_scaled, delta=DELTA)
        assert not rep.guaranteed
        assert rep.alpha >= 0.5 or not np.isfinite(rep.r_minus) or rep.r_minus >= 0

    def test_report_pinned(self, pendulum, pendulum_scaled):
        # recorded before lambda_delta came from derive_constants; must stay bitwise
        cases = [
            ([0.7, 0.0, -0.4, 0.1], 0.05, 0.5,
             (0.031402742895795324, 0.03191192848563129, 1.9680880715143687, 0.11868980597796436, True)),
            ([1.9, 0.0, 0.2, 0.0], -0.02, 0.3,
             (0.013930698322792557, 0.014029106233650057, 1.9859708937663498, 0.08070906806501577, True)),
        ]
        for coords, lam, delta, (alpha, r_minus, r_plus, lambda_delta, guaranteed) in cases:
            rep = kantorovich_report(pendulum, lam, ExtendedState(np.array(coords), 1), pendulum_scaled, delta=delta)
            assert rep == KantorovichReport(
                alpha=alpha, beta=2.0, gamma=0.5, eta=alpha, r_minus=r_minus, r_plus=r_plus,
                lambda_delta=lambda_delta, guaranteed=guaranteed,
            )
        rep = kantorovich_report(pendulum, 1.4, pendulum_state(0.0, 0.0), pendulum_scaled, delta=0.5)
        assert (rep.alpha, rep.eta, rep.lambda_delta, rep.guaranteed) == (0.7, 0.7, 0.11868980597796436, False)
        assert np.isnan(rep.r_minus) and np.isnan(rep.r_plus)

    def test_delta_validation(self, pendulum, pendulum_scaled):
        with pytest.raises(ParameterError):
            kantorovich_report(pendulum, 0.1, pendulum_state(0, 0), pendulum_scaled, delta=1.5)


class TestInverseBound:
    def test_matrix_perturbation_bound(self, pendulum, pendulum_scaled, rng):
        # ||f_zbar^{-1}|| < 2 whenever |lambda| <= 1/M2 (||(lambda/2) J H_zz|| <= 1/2),
        # probed with unit vectors: the pendulum through the n = 1 Cramer block,
        # Henon-Heiles through the LU solve on |x|, |y| <= 0.6, where
        # ||H_zz||_F^2 = 4 + 8 (x^2 + y^2) <= 9.76
        from semint.decoupler import _solve_f

        def pendulum_point():
            return pendulum_state(rng.uniform(-2, 2), rng.uniform(-2, 2), wp=rng.uniform(-1, 1)).coords

        def henon_heiles_point():
            return np.array([*rng.uniform(-0.6, 0.6, 2), rng.uniform(-1, 1), *rng.uniform(-1, 1, 3)])

        for model, m2, point in (
            (pendulum, pendulum_scaled.M2, pendulum_point),
            (henon_heiles_lift(), np.sqrt(9.76), henon_heiles_point),
        ):
            lam_max = 1.0 / m2
            for _ in range(20):
                z = point()
                lam = rng.uniform(-lam_max, lam_max)
                hess = eval_hessian(model, z)
                for _ in range(5):
                    u = rng.standard_normal(model.dim)
                    u /= np.linalg.norm(u)
                    assert np.linalg.norm(_solve_f(model, lam, hess, u)) < 2.0


class TestSensitivity:
    def test_lambda_zero_formula(self, pendulum):
        z = pendulum_state(0.4, 1.2, wp=-0.2)
        sens = midpoint_sensitivity(pendulum, 0.0, z)
        assert np.allclose(sens, 0.5 * apply_J(eval_gradient(pendulum, z.coords)))

    def test_pendulum_time_slot_is_half(self, pendulum):
        # dH/dwp = 1, so the time component of dz_bar/dlambda at 0 is 1/2
        z = pendulum_state(1.1, 0.6, wp=0.0)
        sens = midpoint_sensitivity(pendulum, 0.0, z)
        assert sens[1] == pytest.approx(0.5, abs=1e-14)

    def test_finite_difference_oracle(self, pendulum, rng):
        for _ in range(6):
            z = pendulum_state(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), wp=0.3)
            lam = rng.uniform(-0.1, 0.1)
            z_bar, _, _ = solve_midpoint_coords(pendulum, lam, z.coords, tol=1e-14)
            sens = midpoint_sensitivity(pendulum, lam, z_bar)
            h = 1e-5
            plus, _, _ = solve_midpoint_coords(pendulum, lam + h, z.coords, tol=1e-14)
            minus, _, _ = solve_midpoint_coords(pendulum, lam - h, z.coords, tol=1e-14)
            assert np.allclose(sens, (plus - minus) / (2 * h), atol=1e-8)

    def test_oscillator_sensitivity_fd(self, rng):
        m = models.oscillator(1.0)
        z = np.array([1.0, 0.0, 0.0, 0.1])
        z_bar, _, _ = solve_midpoint_coords(m, 0.2, z, tol=1e-14)
        sens = midpoint_sensitivity(m, 0.2, ExtendedState(z_bar, 1))
        h = 1e-6
        plus, _, _ = solve_midpoint_coords(m, 0.2 + h, z, tol=1e-14)
        minus, _, _ = solve_midpoint_coords(m, 0.2 - h, z, tol=1e-14)
        assert np.allclose(sens, (plus - minus) / (2 * h), atol=1e-9)

    def test_norm_bounded_by_m1(self, pendulum, pendulum_scaled, pendulum_constants, rng):
        ld = pendulum_constants.lambda_delta
        for _ in range(10):
            z = pendulum_state(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            lam = rng.uniform(-ld, ld)
            z_bar, _, _ = solve_midpoint_coords(pendulum, lam, z.coords, tol=1e-13)
            sens = midpoint_sensitivity(pendulum, lam, ExtendedState(z_bar, 1))
            assert np.linalg.norm(sens) <= pendulum_scaled.M1


def coupled_lift():
    """A lift with a mixed H_qp term, which the built-in models lack."""

    def value(x):
        q, p = x[0], x[2]
        return 0.5 * p * p + 0.3 * q * p - np.cos(q)

    def gradient(x):
        q, p = x[0], x[2]
        return np.array([0.3 * p + np.sin(q), 0.0, p + 0.3 * q])

    def hessian(x):
        return np.array([[np.cos(x[0]), 0.0, 0.3], [0.0, 0.0, 0.0], [0.3, 0.0, 1.0]])

    return autonomize(
        ClassicalModel(
            n=1, value=value, gradient=gradient, hessian=hessian, time_independent=True
        )
    )


DIFFERENTIAL_MODELS = {
    "pendulum": models.pendulum(),
    "oscillator": models.oscillator(1.3),
    "coupled": coupled_lift(),
}


class TestClosedFormDifferential:
    """n = 1 lifts take a closed-form (q, p) Newton solve; clearing a flag
    sends the same model through np.linalg.solve, the reference path."""

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(DIFFERENTIAL_MODELS)),
        q=st.floats(-np.pi, np.pi),
        t=st.floats(-5.0, 5.0),
        p=st.floats(-3.0, 3.0),
        wp=st.floats(-2.0, 2.0),
        lam=st.floats(-0.5, 0.5),
    )
    def test_matches_reference_solve(self, name, q, t, p, wp, lam):
        tol = 1e-13
        model = DIFFERENTIAL_MODELS[name]
        reference = replace(model, time_independent=False)
        z = np.array([q, t, p, wp])
        zb, _, res = solve_midpoint_coords(model, lam, z, tol=tol)
        zb_ref, _, res_ref = solve_midpoint_coords(reference, lam, z, tol=tol)
        assert res <= tol and res_ref <= tol
        scale = 1.0 + np.linalg.norm(z)
        assert np.max(np.abs(zb - zb_ref)) <= 1e-12 * scale
        if name == "oscillator":
            assert np.max(np.abs(zb - models.oscillator_midpoint(z, lam, 1.3))) <= 1e-12 * scale
        sens = midpoint_sensitivity(model, lam, zb)
        sens_ref = midpoint_sensitivity(reference, lam, zb)
        assert np.max(np.abs(sens - sens_ref)) <= 1e-10


def _hessian_t_capped(model, stacked):
    """The model with a NaN Hessian wherever t > 0.04 (rows with lambda > 0.08)."""

    def hessian(z):
        h = np.array(model.hessian(z))
        h[z[..., 1] > 0.04] = np.nan
        return h

    return replace(model, hessian=hessian, vectorized=stacked)


class TestStackedClosedForm:
    """``solve_midpoints`` solves the (q, p) block of an n = 1 lift by
    Cramer's rule per row; the same model with a flag cleared takes the
    batched LU solve, kept as the reference."""

    STATES = [(0.9, 0.3, -0.6, 0.2), (-2.1, -1.0, 1.4, -0.7), (0.0, 0.0, 1.0, 0.501)]

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MODELS))
    def test_rows_match_lu_path_and_scalar_solve(self, name):
        model = DIFFERENTIAL_MODELS[name]
        reference = replace(model, time_independent=False)
        lams = np.linspace(-0.3, 0.3, 41)
        for state in self.STATES:
            z = np.array(state)
            rows = solve_midpoints(model, lams, z, tol=1e-13)
            lu_rows = solve_midpoints(reference, lams, z, tol=1e-13)
            assert np.max(np.abs(rows - lu_rows)) <= 1e-14
            for lam, row in zip(lams, rows):
                scalar, _, _ = solve_midpoint_coords(model, lam, z, tol=1e-13)
                assert np.max(np.abs(row - scalar)) <= 1e-14

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MODELS))
    def test_nonconvergence_at_the_lu_iteration_count(self, name):
        model = DIFFERENTIAL_MODELS[name]
        reference = replace(model, time_independent=False)
        z, lams = np.array(self.STATES[1]), [0.0, 0.2, -0.4, 0.6]
        outcomes = {}
        for label, m in (("closed", model), ("lu", reference)):
            for max_iter in range(6):
                try:
                    solve_midpoints(m, lams, z, tol=1e-13, max_iter=max_iter)
                    outcomes[label, max_iter] = "converged"
                except NonconvergenceError as exc:
                    outcomes[label, max_iter] = exc.iterations
                    assert exc.residual > 1e-13
        assert [outcomes["closed", k] for k in range(6)] == [outcomes["lu", k] for k in range(6)]
        assert outcomes["closed", 0] == 0 and outcomes["closed", 5] == "converged"

    def test_non_finite_determinant_names_its_row(self, pendulum):
        # c^2 H_pp H_qq overflows: the 2x2 determinant is inf, as in the scalar solve
        z = pendulum_state(0.3, 0.2, wp=0.1).coords
        with np.errstate(over="ignore"):
            with pytest.raises(LinearSolveError, match=r"lambda=1e\+200;"):
                solve_midpoints(pendulum, [0.1, 1e200, 1e201], z)
            with pytest.raises(LinearSolveError, match=r"lambda=1e\+200;"):
                solve_midpoint_coords(pendulum, 1e200, z)

    def test_overflowing_row_raises_without_a_warning(self, pendulum):
        # the scalar solve raises LinearSolveError silently; so must the batch
        import warnings

        z = pendulum_state(0.3, 0.2, wp=0.1).coords
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinearSolveError, match=r"lambda=1e\+200;"):
                solve_midpoints(pendulum, [0.1, 1e200], z)

    def test_nan_hessian_names_the_row(self, pendulum):
        z = pendulum_state(0.5, 0.2).coords
        lams = np.array([0.0, 0.05, 0.07, 0.09, 0.11])
        for stacked in (True, False):
            with pytest.raises(EvaluationError, match="hessian is non-finite") as err:
                solve_midpoints(_hessian_t_capped(pendulum, stacked), lams, z)
            # the Hessian of iteration 1 sees row k at t = lambda_k / 2
            assert err.value.z[1] == pytest.approx(0.045, abs=1e-15)


def cubic_three_dof_lift():
    """n = 3 lift of H_c = |p|^2/2 + |q|^2/2 + q1 q2 q3: an 8x8 midpoint
    Jacobian (the LU solve) and a 64-entry Hessian (``_checked``'s numpy sum)."""

    def value(c):
        q, p = c[:3], c[4:]
        return 0.5 * (p @ p) + 0.5 * (q @ q) + q[0] * q[1] * q[2]

    def gradient(c):
        q1, q2, q3, _, p1, p2, p3 = c
        return np.array([q1 + q2 * q3, q2 + q1 * q3, q3 + q1 * q2, 0.0, p1, p2, p3])

    def hessian(c):
        q1, q2, q3 = c[:3]
        h = np.zeros((7, 7))
        h[:3, :3] = [[1.0, q3, q2], [q3, 1.0, q1], [q2, q1, 1.0]]
        h[4, 4] = h[5, 5] = h[6, 6] = 1.0
        return h

    return autonomize(
        ClassicalModel(n=3, value=value, gradient=gradient, hessian=hessian, time_independent=True)
    )


class TestThreeDof:
    """The general-n kernels at n = 3, where no built-in model reaches."""

    MODEL = cubic_three_dof_lift()
    Z = np.array([0.1, 0.0, -0.2, 0.15, 0.3, 0.1, -0.2, 0.05])

    def test_grid_rows_match_scalar_solves(self):
        lams = np.linspace(-0.2, 0.2, 17)
        rows = solve_midpoints(self.MODEL, lams, self.Z, tol=1e-13)
        for lam, row in zip(lams, rows):
            ref, _, _ = solve_midpoint_coords(self.MODEL, lam, self.Z, tol=1e-13)
            assert np.max(np.abs(row - ref)) <= 1e-14

    def test_sensitivity_matches_central_difference(self):
        h = 1e-5
        for lam in (-0.15, 0.05, 0.12):
            z_bar, _, _ = solve_midpoint_coords(self.MODEL, lam, self.Z, tol=1e-14)
            plus, _, _ = solve_midpoint_coords(self.MODEL, lam + h, self.Z, tol=1e-14)
            minus, _, _ = solve_midpoint_coords(self.MODEL, lam - h, self.Z, tol=1e-14)
            sens = midpoint_sensitivity(self.MODEL, lam, z_bar)
            assert np.allclose(sens, (plus - minus) / (2 * h), atol=1e-8)

    def test_bad_hessians_raise_typed_errors(self):
        nan_entry = _entry_nan_beyond(self.MODEL, [(2, 2)], 0, -1.0)  # a 64-entry numpy sum
        short = replace(self.MODEL, hessian=lambda z: np.eye(7), vectorized=False)
        bounds = RegionBounds(M1=2.0, M2=3.0, gamma_H=1.5, N1=1.0, N2=1.0,
                              center=ExtendedState(self.Z, 3), radius=1.0)
        for bad, error in ((nan_entry, EvaluationError), (short, DimensionError)):
            calls = [
                lambda: solve_midpoint_coords(bad, 0.1, self.Z),
                lambda: solve_midpoints(bad, [0.0, 0.1], self.Z),
                lambda: midpoint_sensitivity(bad, 0.1, self.Z),
                lambda: kantorovich_report(bad, 0.1, ExtendedState(self.Z, 3), bounds),
            ]
            for call in calls:
                with pytest.raises(error, match="hessian"):
                    call()

    def test_propagate_keeps_the_constraint_and_wp(self):
        from semint.bounds import derive_constants
        from semint.trajectory import StepOptions, choose_conjugate_momentum, propagate

        # closed-form suprema on |q_i|, |p_i| <= 0.5: ||H_z||^2 <= 3 (0.75)^2 + 0.75 + 1,
        # ||H_zz||_F^2 <= 6 + 2 |q|^2, and H_zz's Lipschitz constant sqrt(2); N1 and
        # N2 round up a 3-per-axis sample of psi's derivatives (6.98, 12.37)
        center = ExtendedState(np.zeros(8), 3)
        bounds = RegionBounds(M1=np.sqrt(3.4375), M2=np.sqrt(7.5), gamma_H=np.sqrt(2.0), N1=8.0,
                              N2=14.0, center=center, radius=0.5, active_axes=(0, 1, 2, 4, 5, 6))
        opts = StepOptions(bounds=bounds, constants=derive_constants(bounds, 0.5))
        q0, p0 = [0.1, -0.2, 0.15], [0.3, 0.1, -0.2]
        wp0 = choose_conjugate_momentum(self.MODEL, q0, 0.0, p0, 0.1)
        traj = propagate(self.MODEL, ExtendedState.from_parts(q0, 0.0, p0, wp0), 20, opts)
        assert len(traj.multipliers) == 20
        assert all(0.09 < lam < 0.11 for lam in traj.multipliers)
        assert max(abs(eval_value(self.MODEL, z.coords)) for z in traj.midpoints) <= opts.tol_g
        assert max(abs(v.wp - wp0) for v in traj.vertices) <= 1e-12
