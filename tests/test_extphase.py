import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint.errors import DimensionError, EvaluationError, ParameterError
from semint.extphase import (
    ClassicalModel,
    ExtendedState,
    HamiltonianModel,
    _checked,
    _eval_stack,
    _hessian,
    _psi_rows,
    _row_dots,
    apply_J,
    autonomize,
    eval_gradient,
    eval_hessian,
    eval_value,
    fd_gradient,
    finite_difference_model,
    psi_fd_step,
    psi_gradient,
    sample_fields,
)
from semint import models

from conftest import henon_heiles_lift, pendulum_state


class TestExtendedState:
    def test_layout(self):
        z = ExtendedState.from_parts([1.0, 2.0], 3.0, [4.0, 5.0], 6.0)
        assert z.n == 2
        assert list(z.coords) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert list(z.q) == [1.0, 2.0]
        assert z.t == 3.0
        assert list(z.p) == [4.0, 5.0]
        assert z.wp == 6.0

    def test_rejects_bad_lengths(self):
        with pytest.raises(DimensionError):
            ExtendedState(np.zeros(5), 1)
        with pytest.raises(ParameterError, match=r"^n must be a whole number >= 1, got 0$"):
            ExtendedState(np.zeros(4), 0)
        with pytest.raises(DimensionError):
            ExtendedState.from_parts([1.0, 2.0], 0.0, [1.0], 0.0)

    def test_rejects_nonfinite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(EvaluationError, match=r"^non-finite state coordinates$"):
                ExtendedState(np.array([1.0, bad, 0.0, 0.0]), 1)

    def test_accepts_finite_coordinates_whose_sum_overflows(self):
        # the test is per coordinate, not on a sum: 1e308 + 1e308 is inf
        z = ExtendedState(np.array([1e308, 0.0, 1e308, 0.0]), 1)
        assert z.q[0] == z.p[0] == 1e308


class TestApplyJ:
    def test_block_structure_n1(self):
        # J maps (a, b) to (b, -a) with the split after the time slot
        assert list(apply_J(np.array([1.0, 0, 0, 0]))) == [0, 0, -1, 0]
        assert list(apply_J(np.array([0.0, 0, 1, 0]))) == [1, 0, 0, 0]

    def test_pendulum_gradient_image(self, pendulum):
        # H_z at (pi/2, 0, 2, 1) is (1, 0, 2, 1)
        z = pendulum_state(np.pi / 2, 2.0, wp=1.0)
        grad = pendulum.gradient(z.coords)
        assert np.allclose(grad, [1.0, 0.0, 2.0, 1.0])
        assert np.allclose(apply_J(grad), [2.0, 1.0, -1.0, 0.0])

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionError):
            apply_J(np.array([1.0, 2.0, 3.0]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=12,
        ).filter(lambda v: len(v) % 2 == 0)
    )
    def test_involution_and_isometry(self, vec):
        v = np.array(vec)
        jv = apply_J(v)
        assert np.allclose(apply_J(jv), -v, atol=0.0)
        # summation order differs between v and Jv, so compare relatively
        assert np.linalg.norm(jv) == pytest.approx(np.linalg.norm(v), rel=5e-15)


class TestSampleFields:
    def test_pendulum_equilibrium(self, pendulum):
        # H = 1 + 0 - 1 = 0 and both curvature scalars vanish
        fs = sample_fields(pendulum, pendulum_state(0.0, 0.0, wp=1.0))
        assert fs.H == pytest.approx(0.0, abs=1e-15)
        assert fs.psi == pytest.approx(0.0, abs=1e-12)
        assert fs.psi_prime == pytest.approx(0.0, abs=1e-10)

    def test_pendulum_reference_point(self, pendulum):
        fs = sample_fields(pendulum, pendulum_state(np.pi / 2, 1.0))
        assert fs.psi == pytest.approx(1.0, abs=1e-12)
        assert fs.psi_prime == pytest.approx(-1.0, abs=1e-10)

    def test_quadratic_form_identity(self, pendulum, rng):
        for _ in range(20):
            z = pendulum_state(rng.uniform(-3, 3), rng.uniform(-3, 3), wp=rng.uniform(-1, 1))
            fs = sample_fields(pendulum, z)
            w = apply_J(fs.grad)
            quad = float(w @ fs.hess @ w)
            assert fs.psi == pytest.approx(quad, rel=1e-12, abs=1e-12)

    def test_psi_prime_closed_form_on_grid(self, pendulum):
        # psi' vanishes exactly on p = 0 and q in {0, +-pi}
        for q in (-np.pi, 0.0, np.pi):
            fs = sample_fields(pendulum, pendulum_state(q, 1.3))
            assert abs(fs.psi_prime) < 1e-9
        for p in (0.0,):
            fs = sample_fields(pendulum, pendulum_state(1.1, p))
            assert abs(fs.psi_prime) < 1e-9
        for q, p in ((0.7, 1.2), (-2.1, 0.4), (2.9, -1.8)):
            fs = sample_fields(pendulum, pendulum_state(q, p))
            assert fs.psi_prime == pytest.approx(models.pendulum_psi_prime(q, p), abs=1e-8)

    def test_fd_psi_gradient_matches_analytic(self, pendulum, rng):
        # strip the analytic psi gradient to force the FD fallback
        from dataclasses import replace

        fd_model = replace(pendulum, psi_gradient=None)
        for _ in range(5):
            z = pendulum_state(rng.uniform(-2, 2), rng.uniform(-2, 2))
            a = sample_fields(pendulum, z)
            b = sample_fields(fd_model, z)
            assert b.psi_prime == pytest.approx(a.psi_prime, rel=1e-7, abs=1e-8)


def _henon_heiles_third_derivative():
    """D^3 H[w, w, w] of the Henon-Heiles lift with w = J H_z, derived by
    sympy, next to the Poisson bracket psi_z . w that it equals; both as
    numeric functions of the six coordinates."""
    sp = pytest.importorskip("sympy")
    z = sp.symbols("x y t px py wp")
    x, y, _, px, py, wp = z
    H = wp + (px**2 + py**2) / 2 + (x**2 + y**2) / 2 + x**2 * y - y**3 / 3
    grad = [sp.diff(H, v) for v in z]
    w = grad[3:] + [-g for g in grad[:3]]  # J H_z
    third = sum(sp.diff(H, a, b, c) * w[i] * w[j] * w[k]
                for i, a in enumerate(z) for j, b in enumerate(z) for k, c in enumerate(z))
    psi = sum(sp.diff(H, a, b) * w[i] * w[j] for i, a in enumerate(z) for j, b in enumerate(z))
    bracket = sum(sp.diff(psi, a) * w[i] for i, a in enumerate(z))
    return sp.lambdify(z, third), sp.simplify(bracket - third)


class TestDirectionalPsiPrime:
    """psi' of a model without a psi gradient is D^3 H[w, w, w] from two
    Hessians along w = J H_z: no psi gradient, no flag, no |z| in its step."""

    @staticmethod
    def _states(rng, n, rows, t_max=0.0):
        zs = rng.uniform(-0.6, 0.6, size=(rows, 2 * n + 2))
        zs[:, n] = rng.uniform(0.0, t_max, rows)
        return zs

    def test_matches_the_symbolic_third_derivative(self, rng):
        third, identity_defect = _henon_heiles_third_derivative()
        assert identity_defect == 0  # [psi, H] = D^3 H[w, w, w], symbolically
        lift = henon_heiles_lift()
        zs = self._states(rng, 2, 40, t_max=1e3)
        for z in zs:
            assert abs(sample_fields(lift, z).psi_prime - third(*z)) <= 1e-10
        want = np.array([third(*z) for z in zs])
        assert np.max(np.abs(sample_fields(lift, zs).psi_prime - want)) <= 1e-10

    def test_time_independent_lift_reads_the_same_at_any_time(self, pendulum, rng):
        from dataclasses import replace

        for model, n in ((henon_heiles_lift(), 2), (replace(pendulum, psi_gradient=None), 1)):
            for z in self._states(rng, n, 20):
                late = z.copy()
                late[n] = 1e3
                early_prime = sample_fields(model, z).psi_prime
                assert abs(sample_fields(model, late).psi_prime - early_prime) <= 1e-9, model.name

    @staticmethod
    def _forced_lift():
        """H_c = p^2/2 + (1 + sin(t)/2) q^2/2 + q^3/3, lifted under a false
        ``time_independent=True``: a differenced psi_z that trusts the flag
        drops its t component."""

        def value(c):
            q, t, p = c
            return 0.5 * p * p + 0.5 * (1.0 + 0.5 * np.sin(t)) * q * q + q**3 / 3.0

        def gradient(c):
            q, t, p = c
            return np.array([(1.0 + 0.5 * np.sin(t)) * q + q * q, 0.25 * np.cos(t) * q * q, p])

        def hessian(c):
            q, t, _ = c
            return np.array([[1.0 + 0.5 * np.sin(t) + 2.0 * q, 0.5 * np.cos(t) * q, 0.0],
                             [0.5 * np.cos(t) * q, -0.25 * np.sin(t) * q * q, 0.0],
                             [0.0, 0.0, 1.0]])

        return autonomize(ClassicalModel(n=1, value=value, gradient=gradient, hessian=hessian,
                                         time_independent=True, name="forced"))

    def test_reads_no_flag(self, pendulum, rng):
        from dataclasses import replace

        for model, n in ((henon_heiles_lift(), 2), (replace(pendulum, psi_gradient=None), 1),
                         (self._forced_lift(), 1)):
            cleared = replace(model, time_independent=False, wp_affine=False)
            zs = self._states(rng, n, 9, t_max=10.0)
            assert _bits(sample_fields(cleared, zs).psi_prime) == _bits(sample_fields(model, zs).psi_prime)
            for z in zs:
                fields = sample_fields(model, z)
                assert _bits(sample_fields(cleared, z).psi_prime) == _bits(fields.psi_prime)
                # psi_z differenced along every axis, t included, agrees
                bracket = float(psi_gradient(cleared, z) @ apply_J(fields.grad))
                assert fields.psi_prime == pytest.approx(bracket, rel=1e-6, abs=1e-8), model.name

    def test_calls_no_psi_gradient(self, monkeypatch, rng):
        from semint import extphase

        def refuse(*args):
            raise AssertionError("psi_gradient called")

        monkeypatch.setattr(extphase, "psi_gradient", refuse)
        lift = henon_heiles_lift()
        zs = self._states(rng, 2, 5)
        sample_fields(lift, zs)
        sample_fields(lift, zs[0])

    def test_bad_probe_hessian_carries_the_first_offending_probe(self, rng):
        from dataclasses import replace

        lift = henon_heiles_lift()

        def hessian(z):
            h = lift.hessian(z)
            if z[0] > 0.5:
                h[0, 0] = np.nan
            return h

        zs = self._states(rng, 2, 4)
        zs[:, 0] = [0.1, 0.2, 0.5, 0.1]
        zs[:, 3] = 1.0  # w_x = px = 1: the +h probe of row 2 lies past x = 0.5, its state does not
        model = replace(lift, hessian=hessian, vectorized=False)
        w = apply_J(lift.gradient(zs[2]))
        probe = zs[2] + 1e-5 / max(1.0, float(np.linalg.norm(w))) * w
        for z in (zs, zs[2]):
            with pytest.raises(EvaluationError, match="hessian is non-finite") as err:
                sample_fields(model, z)
            assert np.array_equal(err.value.z, probe)


def _psi_gradient_reference(model, z):
    """The per-probe loop psi differencing used before batching: all axes."""
    h = psi_fd_step(z)
    out = np.empty(z.size)
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = h
        psi = []
        for x in (z + e, z - e):
            w = apply_J(eval_gradient(model, x))
            psi.append(float(w @ eval_hessian(model, x) @ w))
        out[i] = (psi[0] - psi[1]) / (2 * h)
    return out


class TestPsiGradientBatch:
    @staticmethod
    def _stack(rng, n, rows=7):
        return rng.uniform(-0.6, 0.6, size=(rows, 2 * n + 2))

    def test_stack_equals_rows_bitwise(self, pendulum, rng):
        from dataclasses import replace

        cases = [
            (henon_heiles_lift(), 2),
            (pendulum, 1),
            (replace(pendulum, psi_gradient=None), 1),
            (finite_difference_model(1, pendulum.value), 1),
        ]
        for model, n in cases:
            zs = self._stack(rng, n)
            batch = psi_gradient(model, zs)
            rows = np.array([psi_gradient(model, z) for z in zs])
            assert batch.shape == zs.shape
            assert np.array_equal(batch, rows)

    def test_matches_per_probe_loop_bitwise(self, rng):
        # an honest lift: the skipped t and wp components were exact zeros
        lift = henon_heiles_lift()
        zs = self._stack(rng, 2)
        batch = psi_gradient(lift, zs)
        assert np.array_equal(batch, [_psi_gradient_reference(lift, z) for z in zs])
        assert np.all(batch[:, [2, 5]] == 0.0)

    def test_undeclared_flags_keep_every_axis(self, rng):
        from dataclasses import replace

        lift = henon_heiles_lift()
        unflagged = replace(lift, time_independent=False, wp_affine=False)
        calls = []

        def gradient(z):
            calls.append(1)
            return lift.gradient(z)

        zs = self._stack(rng, 2, rows=3)
        flagged_out = psi_gradient(lift, zs)
        out = psi_gradient(replace(unflagged, gradient=gradient, vectorized=False), zs)
        assert len(calls) == 3 * 2 * 6  # +-h on all six axes per row
        assert np.array_equal(out, flagged_out)

    def test_wrong_width_stack_raises(self, pendulum):
        from dataclasses import replace

        for model in (henon_heiles_lift(), pendulum, replace(pendulum, psi_gradient=None)):
            with pytest.raises(DimensionError):
                psi_gradient(model, np.zeros((3, model.dim + 1)))
            with pytest.raises(DimensionError):
                psi_gradient(model, np.zeros((2, 3, model.dim)))

    @pytest.mark.parametrize("fault", ["nan", "asymmetric"])
    def test_bad_hessian_carries_first_offending_probe(self, fault, rng):
        from dataclasses import replace

        lift = henon_heiles_lift()

        def hessian(z):
            h = lift.hessian(z)
            if z[1] > 0.5:
                h[0, 1] += np.nan if fault == "nan" else 1.0
            return h

        zs = self._stack(rng, 2, rows=4)
        zs[:, 1] = [0.1, 0.2, 0.5, 0.9]  # rows 2 and 3 probe the bad region
        # probes run +h along x, y, px, py and then -h; row 2 sits on the
        # edge, so its first probe with y > 0.5 is its +y probe
        probe = zs[2].copy()
        probe[1] += psi_fd_step(zs[2])
        with pytest.raises(EvaluationError, match="non-finite" if fault == "nan" else "symmetric") as err:
            psi_gradient(replace(lift, hessian=hessian, vectorized=False), zs)
        assert np.array_equal(err.value.z, probe)

    def test_nonfinite_gradient_carries_probe(self, rng):
        from dataclasses import replace

        lift = henon_heiles_lift()

        def gradient(z):
            g = lift.gradient(z)
            if z[0] < -0.5:
                g[0] = np.inf
            return g

        zs = self._stack(rng, 2, rows=3)
        zs[:, 0] = [0.0, -0.5, 0.3]
        probe = zs[1].copy()
        probe[0] -= psi_fd_step(zs[1])  # row 1's -x probe, the first below -0.5
        with pytest.raises(EvaluationError, match="gradient") as err:
            psi_gradient(replace(lift, gradient=gradient, vectorized=False), zs)
        assert np.array_equal(err.value.z, probe)

    def test_wrong_width_analytic_psi_gradient_raises(self, pendulum):
        from dataclasses import replace

        model = replace(pendulum, psi_gradient=lambda z: np.append(pendulum.psi_gradient(z), 0.0))
        zs = np.array([[0.0, 0, 0.5, 0], [1.5, 0, 0.5, 0]])
        with pytest.raises(DimensionError, match="psi_gradient on 2 states has shape"):
            psi_gradient(model, zs)

    def test_nonfinite_analytic_psi_gradient_carries_row(self, pendulum):
        from dataclasses import replace

        def psi_grad(z):
            return np.full(4, np.nan) if z[0] > 1.0 else pendulum.psi_gradient(z)

        zs = np.array([[0.0, 0, 0.5, 0], [1.5, 0, 0.5, 0], [2.0, 0, 0.5, 0]])
        with pytest.raises(EvaluationError) as err:
            psi_gradient(replace(pendulum, psi_gradient=psi_grad, vectorized=False), zs)
        assert np.array_equal(err.value.z, zs[1])

    def test_stack_native_psi_gradient_is_called_once_per_stack(self, pendulum, rng):
        from dataclasses import replace

        calls = []

        def psi_grad(z):
            calls.append(z.shape)
            return pendulum.psi_gradient(z)

        model = replace(pendulum, psi_gradient=psi_grad)
        zs = rng.uniform(-1.5, 1.5, size=(200, 4))
        rows = np.array([pendulum.psi_gradient(z) for z in zs])
        assert _bits(psi_gradient(model, zs)) == _bits(rows)
        assert calls == [(200, 4)]
        assert _bits(sample_fields(model, zs).psi_prime) == _bits(sample_fields(pendulum, zs).psi_prime)
        assert calls == [(200, 4), (200, 4)]

    def test_one_state_wrong_dimension_state_raises(self, pendulum):
        # the pendulum's psi gradient reads q and p only: it would answer a 6-vector
        with pytest.raises(DimensionError, match="state has shape"):
            psi_gradient(pendulum, np.zeros(6))

    def test_one_state_wrong_width_analytic_psi_gradient_raises(self, pendulum):
        from dataclasses import replace

        model = replace(pendulum, psi_gradient=lambda z: np.append(pendulum.psi_gradient(z), 0.0))
        with pytest.raises(DimensionError, match="psi_gradient has shape"):
            psi_gradient(model, np.array([0.0, 0, 0.5, 0]))
        with pytest.raises(DimensionError):
            sample_fields(model, np.array([0.0, 0, 0.5, 0]))

    def test_one_state_and_stack_agree_on_an_overflowing_sum(self, pendulum):
        from dataclasses import replace

        # every component is finite, but the sum the stack tests is not
        model = replace(pendulum, psi_gradient=lambda z: np.array([1e308, 1e308, 0.0, 0.0]),
                        vectorized=False)
        z = np.array([0.0, 0, 0.5, 0])
        with np.errstate(over="ignore"):
            with pytest.raises(EvaluationError, match="model psi_gradient is non-finite"):
                psi_gradient(model, np.stack([z, z]))
            with pytest.raises(EvaluationError, match="model psi_gradient is non-finite"):
                psi_gradient(model, z)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestSampleFieldsStack:
    FIELDS = ("H", "grad", "hess", "psi", "psi_prime")

    @staticmethod
    def _cases(pendulum):
        from dataclasses import replace

        return [
            (pendulum, 1),
            (replace(pendulum, psi_gradient=None), 1),
            (models.oscillator(1.7), 1),
            (models.free_time(2), 2),
            (henon_heiles_lift(), 2),
            (finite_difference_model(1, pendulum.value), 1),
        ]

    def test_stack_equals_rows_bitwise(self, pendulum, rng):
        for model, n in self._cases(pendulum):
            zs = rng.uniform(-1.5, 1.5, size=(9, 2 * n + 2))
            stack = sample_fields(model, zs)
            rows = [sample_fields(model, z) for z in zs]
            dim = model.dim
            shapes = {"H": (9,), "grad": (9, dim), "hess": (9, dim, dim), "psi": (9,),
                      "psi_prime": (9,)}
            for name in self.FIELDS:
                got = getattr(stack, name)
                assert got.shape == shapes[name], (model.name, name)
                assert _bits(got) == _bits([getattr(r, name) for r in rows]), (model.name, name)

    def test_bad_shapes_raise(self, pendulum):
        for model, _ in self._cases(pendulum):
            with pytest.raises(DimensionError):
                sample_fields(model, np.zeros((3, model.dim + 1)))
            with pytest.raises(DimensionError):
                sample_fields(model, np.zeros((2, 3, model.dim)))

    def test_nan_row_named(self, pendulum, rng):
        for model, n in self._cases(pendulum):
            zs = rng.uniform(-1.0, 1.0, size=(5, 2 * n + 2))
            zs[3] = np.nan
            with pytest.raises(EvaluationError) as err:
                sample_fields(model, zs)
            assert np.array_equal(err.value.z, zs[3], equal_nan=True), model.name


class TestAutonomize:
    @staticmethod
    def _oscillator_classical(omega=1.0):
        w2 = omega * omega

        def value(zc):
            q, t, p = zc
            return 0.5 * (p * p + w2 * q * q)

        def gradient(zc):
            q, t, p = zc
            return np.array([w2 * q, 0.0, p])

        def hessian(zc):
            return np.diag([w2, 0.0, 1.0])

        return ClassicalModel(n=1, value=value, gradient=gradient, hessian=hessian)

    def test_pendulum_form(self):
        def value(zc):
            q, t, p = zc
            return 0.5 * p * p - np.cos(q)

        def gradient(zc):
            q, t, p = zc
            return np.array([np.sin(q), 0.0, p])

        def hessian(zc):
            q = zc[0]
            return np.diag([np.cos(q), 0.0, 1.0])

        lifted = autonomize(ClassicalModel(n=1, value=value, gradient=gradient, hessian=hessian))
        builtin = models.pendulum()
        for q, p, wp in ((0.3, -1.2, 0.7), (2.0, 0.5, -0.4)):
            z = pendulum_state(q, p, wp=wp).coords
            assert lifted.value(z) == pytest.approx(builtin.value(z), rel=1e-15)
            assert np.allclose(lifted.gradient(z), builtin.gradient(z))
            assert np.allclose(lifted.hessian(z), builtin.hessian(z))

    def test_free_time_lift(self):
        zero = ClassicalModel(
            n=1,
            value=lambda zc: 0.0,
            gradient=lambda zc: np.zeros(3),
            hessian=lambda zc: np.zeros((3, 3)),
        )
        lifted = autonomize(zero)
        z = pendulum_state(0.4, -0.6, wp=1.25).coords
        assert lifted.value(z) == 1.25
        assert np.allclose(lifted.gradient(z), [0, 0, 0, 1])

    def test_quadratic_hessian_embedding(self):
        lifted = autonomize(self._oscillator_classical())
        z = pendulum_state(1.0, 2.0, wp=0.0).coords
        assert np.allclose(lifted.hessian(z), np.diag([1.0, 0.0, 1.0, 0.0]))

    def test_wp_slope_is_one(self, rng):
        lifted = autonomize(self._oscillator_classical(omega=2.0))
        for _ in range(5):
            z = pendulum_state(rng.uniform(-2, 2), rng.uniform(-2, 2), wp=rng.uniform(-2, 2))
            assert lifted.gradient(z.coords)[-1] == 1.0

    def test_stack_equals_rows_bitwise(self, rng):
        lift = henon_heiles_lift()
        assert lift.vectorized
        zs = rng.uniform(-0.7, 0.7, size=(23, lift.dim))
        for kind, shape in (("value", (23,)), ("gradient", (23, 6)), ("hessian", (23, 6, 6))):
            stacked = getattr(lift, kind)(zs)
            assert stacked.shape == shape, kind
            assert _bits(stacked) == _bits([getattr(lift, kind)(z) for z in zs]), kind

    @pytest.mark.parametrize("fault", ["nan", "asymmetric"])
    def test_bad_classical_hessian_names_its_row(self, fault, rng):
        def hessian(c):
            h = np.diag([1.0 + 2.0 * c[1], 1.0, 0.0, 1.0, 1.0])
            if c[0] > 0.5:
                h[0, 1] += np.nan if fault == "nan" else 1.0
            return h

        bad = autonomize(ClassicalModel(n=2, value=lambda c: 0.0, gradient=lambda c: np.zeros(5),
                                        hessian=hessian, time_independent=True))
        zs = rng.uniform(-0.4, 0.4, size=(5, 6))
        zs[[2, 4], 0] = 0.6  # rows 2 and 4 reach the bad region; row 2 comes first
        for call in (lambda: _eval_stack(bad, zs, "hessian"), lambda: sample_fields(bad, zs)):
            with pytest.raises(EvaluationError, match="non-finite" if fault == "nan" else "symmetric") as err:
                call()
            assert same_bits(err.value.z, zs[2])


def _special_stack(rng, rows, d, scale=1.0):
    """Seeded rows plus rows holding +-0.0, 1e-300 and 1e150 entries."""
    out = scale * rng.standard_normal((rows, d))
    out[0] = 0.0
    out[1] = -0.0
    out[2, ::2] = -0.0
    out[3] = 1e-300 * rng.standard_normal(d)
    out[4, 0], out[4, -1] = 1e150, -1e-300
    out[5, 1] = 1e150
    return out


def _layouts(a):
    """a itself, a Fortran-ordered copy and a view through reversed axes."""
    flipped = np.ascontiguousarray(a.transpose(tuple(reversed(range(a.ndim)))))
    return [a, np.asfortranarray(a), flipped.transpose(tuple(reversed(range(a.ndim))))]


class TestStackedProducts:
    """psi, psi' and the psi step on a stack, bit for bit the per-row forms."""

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_psi_rows(self, d, rng):
        ws = _special_stack(rng, 40, d)
        a = rng.standard_normal((40, d, d))
        hs = a + a.transpose(0, 2, 1)
        want = [float(w @ h @ w) for w, h in zip(ws, hs)]
        for ws_view in _layouts(ws):
            for hs_view in _layouts(hs):
                assert _bits(_psi_rows(ws_view, hs_view)) == _bits(want)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_psi_prime_rows(self, d, rng):
        pz, ws = _special_stack(rng, 40, d), _special_stack(rng, 40, d, scale=3.0)
        want = [float(g @ w) for g, w in zip(pz, ws)]
        for pz_view in _layouts(pz):
            for ws_view in _layouts(ws):
                assert _bits(_row_dots(pz_view, ws_view)) == _bits(want)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_fd_step(self, d, rng):
        zs = _special_stack(rng, 40, d)
        want = [1e-5 * max(1.0, float(np.linalg.norm(z))) for z in zs]
        for view in _layouts(zs):
            assert _bits(psi_fd_step(view)) == _bits(want)

    def test_sample_fields_on_a_strided_stack(self, rng):
        lift = henon_heiles_lift()
        zs = rng.uniform(-0.5, 0.5, size=(7, lift.dim))
        rows = [sample_fields(lift, z) for z in zs]
        for view in _layouts(zs)[1:]:
            stack = sample_fields(lift, view)
            for name in ("H", "grad", "hess", "psi", "psi_prime"):
                assert _bits(getattr(stack, name)) == _bits([getattr(r, name) for r in rows]), name


class TestFiniteDifferenceAgreement:
    def test_gradient_second_order(self, pendulum):
        z = pendulum_state(0.8, -1.1, wp=0.2).coords
        exact = pendulum.gradient(z)
        e1 = np.linalg.norm(fd_gradient(pendulum, z, step=1e-3) - exact)
        e2 = np.linalg.norm(fd_gradient(pendulum, z, step=5e-4) - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.25)

    def test_fd_model_matches_analytic(self, pendulum):
        from semint.extphase import finite_difference_model

        fd = finite_difference_model(1, pendulum.value, step=1e-6)
        z = pendulum_state(0.8, -1.1, wp=0.2).coords
        assert np.allclose(fd.gradient(z), pendulum.gradient(z), atol=1e-9)
        assert np.allclose(fd.hessian(z), pendulum.hessian(z), atol=1e-6)

    def test_fd_model_gradient_converges_quadratically(self, pendulum):
        from semint.extphase import finite_difference_model

        z = pendulum_state(0.8, -1.1, wp=0.2).coords
        exact = pendulum.gradient(z)
        errs = []
        for step in (2e-3, 1e-3):
            fd = finite_difference_model(1, pendulum.value, step=step)
            errs.append(np.linalg.norm(fd.gradient(z) - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


class TestEvaluationErrors:
    def test_nonfinite_value_carries_point(self, pendulum):
        from dataclasses import replace

        bad = replace(pendulum, value=lambda z: np.nan)
        z = pendulum_state(0.1, 0.2, wp=0.3)
        with pytest.raises(EvaluationError) as err:
            sample_fields(bad, z)
        assert np.array_equal(err.value.z, z.coords)

    def test_nonfinite_gradient_carries_point(self, pendulum):
        from dataclasses import replace

        bad = replace(pendulum, gradient=lambda z: np.array([np.inf, 0, 0, 1]))
        z = pendulum_state(0.1, 0.2, wp=0.3)
        with pytest.raises(EvaluationError) as err:
            sample_fields(bad, z)
        assert err.value.z is not None

    @pytest.mark.parametrize("kind, result", [
        ("value", lambda z: np.array([1.0, 2.0])),
        ("gradient", lambda z: np.zeros(6)),
        ("hessian", lambda z: np.eye(3)),
    ], ids=["value", "gradient", "hessian"])
    def test_one_state_wrong_shape_raises_as_a_stack_does(self, pendulum, kind, result):
        from dataclasses import replace

        bad = replace(pendulum, vectorized=False, **{kind: result})
        z = pendulum_state(0.1, 0.2, wp=0.3).coords
        with pytest.raises(DimensionError, match=f"its {kind} on 1 states has shape"):
            _eval_stack(bad, z[None], kind)
        one_state = {"value": eval_value, "gradient": eval_gradient, "hessian": eval_hessian}[kind]
        with pytest.raises(DimensionError, match=f"its {kind} has shape"):
            one_state(bad, z)
        with pytest.raises(DimensionError, match=f"its {kind} has shape"):
            sample_fields(bad, z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", [6, 8], ids=["float-sum", "numpy-sum"])
    def test_non_finite_entry_on_either_side_of_the_float_sum(self, pendulum, bad, side):
        # up to 36 entries (6x6) the sum runs on Python floats, above on numpy
        z = pendulum_state(0.1, 0.2, wp=0.3).coords
        hess = np.eye(side)
        hess[1, side - 1] = bad
        with pytest.raises(EvaluationError, match="model hessian is non-finite") as err:
            _checked(pendulum, "hessian", z, hess, hess.shape)
        assert np.array_equal(err.value.z, z)

    def test_overflowing_float_sum_raises_without_a_warning(self, pendulum):
        # numpy's sum warned "overflow encountered in reduce" before the
        # EvaluationError, and under -W error the caller got the warning
        from dataclasses import replace

        bad = replace(pendulum, gradient=lambda z: np.array([1e308, 0.0, 1e308, 1.0]), vectorized=False)
        with pytest.raises(EvaluationError, match="model gradient is non-finite"):
            eval_gradient(bad, pendulum_state(0.1, 0.2).coords)


def parent_hessian(h):
    """The symmetry check every Hessian went through before the bitwise shortcut."""
    scale = 1.0 + np.linalg.norm(h)
    if np.linalg.norm(h - h.T) > 1e-10 * scale:
        raise EvaluationError("model hessian is not symmetric", None)
    return 0.5 * (h + h.T)


def parent_stack(arr):
    """The same check on a (N, dim, dim) stack, as ``_eval_stack`` ran it."""
    transposed = arr.transpose(0, 2, 1)
    scale = 1.0 + np.linalg.norm(arr, axis=(1, 2))
    if (np.linalg.norm(arr - transposed, axis=(1, 2)) > 1e-10 * scale).any():
        raise EvaluationError("model hessian is not symmetric", None)
    return 0.5 * (arr + transposed)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def hessian_case(kind, rng, dim=4):
    a = rng.normal(size=(dim, dim))
    h = a + a.T  # bitwise symmetric: floating-point addition commutes
    if kind == "signed-zero":  # equal as floats, not as bits
        h[0, 1], h[1, 0] = 0.0, -0.0
    elif kind == "below":  # one ulp apart, far under the 1e-10 scale threshold
        h[1, 2] = np.nextafter(h[2, 1], np.inf)
    elif kind == "above":
        h[1, 2] = h[2, 1] + 1e-6
    return h


def hessian_model(hessians, vectorized):
    """An n = 1 model whose Hessian at a state z is hessians[int(z[0])]."""
    if vectorized:
        def hessian(zs):
            return hessians[zs[:, 0].astype(int)].copy()
    else:
        def hessian(z):
            return hessians[int(z[0])].copy()
    return HamiltonianModel(
        n=1,
        value=lambda z: 0.0,
        gradient=lambda z: np.zeros(4),
        hessian=hessian,
        vectorized=vectorized,
    )


class TestHessianSymmetryShortcut:
    """A bitwise-symmetric Hessian skips the norm test and 0.5 (h + h^T);
    every result and every "not symmetric" error stays what that formula gave."""

    @pytest.mark.parametrize("kind", ["bitwise", "signed-zero", "below", "above"])
    def test_single_matches_the_norm_test_bitwise(self, kind, rng):
        h = hessian_case(kind, rng)
        model = hessian_model(h[None], vectorized=False)
        z = np.zeros(4)
        if kind == "above":
            with pytest.raises(EvaluationError):
                parent_hessian(h)
            for fn in (_hessian, eval_hessian):
                with pytest.raises(EvaluationError, match="not symmetric"):
                    fn(model, z)
            return
        want = parent_hessian(h)
        # the formula leaves only a bitwise-symmetric input unchanged
        assert same_bits(want, h) == (kind == "bitwise")
        assert same_bits(_hessian(model, z), want)
        assert same_bits(eval_hessian(model, z), want)

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("bitwise", "bitwise", "bitwise"),
            ("bitwise", "signed-zero", "bitwise"),
            ("below", "bitwise", "signed-zero"),
            ("bitwise", "below", "above"),
        ],
    )
    def test_stack_matches_the_norm_test_bitwise(self, kinds, vectorized, rng):
        arr = np.array([hessian_case(kind, rng) for kind in kinds])
        model = hessian_model(arr, vectorized)
        zs = np.zeros((len(kinds), 4))
        zs[:, 0] = np.arange(len(kinds))
        if "above" in kinds:
            with pytest.raises(EvaluationError):
                parent_stack(arr)
            with pytest.raises(EvaluationError, match="not symmetric") as err:
                _eval_stack(model, zs, "hessian")
            assert same_bits(err.value.z, zs[kinds.index("above")])
            return
        (got,) = _eval_stack(model, zs, "hessian")
        assert same_bits(got, parent_stack(arr))

    def test_huge_symmetric_entry_is_no_longer_overflowed(self, rng):
        # the one input the shortcut changes: 0.5 (h + h^T) overflowed an
        # entry above DBL_MAX / 2 to inf; the model's own h comes back instead
        h = hessian_case("bitwise", rng)
        h[3, 3] = 1.5e308
        with np.errstate(over="ignore"):
            assert np.isinf(parent_hessian(h)[3, 3])
        assert same_bits(_hessian(hessian_model(h[None], vectorized=False), np.zeros(4)), h)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_only_asymmetric_rows_of_a_stack_are_symmetrized(self, vectorized, rng):
        # a bitwise-symmetric row holding an entry above DBL_MAX / 2 keeps its
        # bits (as ``_hessian`` returns it alone) beside a row that needs
        # 0.5 (h + h^T); symmetrizing the whole stack overflowed it to inf
        huge = hessian_case("bitwise", rng)
        huge[3, 3] = 1.5e308
        arr = np.array([huge, hessian_case("below", rng)])
        model = hessian_model(arr, vectorized)
        zs = np.zeros((2, 4))
        zs[1, 0] = 1.0
        (got,) = _eval_stack(model, zs, "hessian")
        assert same_bits(got[0], huge)
        assert same_bits(got[0], _hessian(hessian_model(arr, vectorized=False), zs[0]))
        assert same_bits(got[1], parent_hessian(arr[1]))
