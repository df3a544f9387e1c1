import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semint import models
from semint.errors import ParameterError
from semint.extphase import ExtendedState, fd_gradient, fd_hessian, sample_fields

from conftest import pendulum_state


def test_pendulum_value_at_upright():
    m = models.pendulum()
    assert m.value(pendulum_state(0.0, 0.0, wp=1.0).coords) == pytest.approx(0.0)


def test_pendulum_psi_zero_set_shape():
    # psi = 0 solves p^2 = -sin^2 q / cos q, which needs cos q < 0
    for q in (1.8, 2.2, 2.8):
        p = np.sqrt(-np.sin(q) ** 2 / np.cos(q))
        assert models.pendulum_psi(q, p) == pytest.approx(0.0, abs=1e-12)
    # no real solution on |q| < pi/2 away from the equilibria
    assert models.pendulum_psi(0.5, 1.0) > 0


def test_pendulum_derivatives_match_finite_differences(rng):
    m = models.pendulum()
    for _ in range(8):
        z = pendulum_state(rng.uniform(-3, 3), rng.uniform(-3, 3), wp=rng.uniform(-1, 1)).coords
        assert np.allclose(fd_gradient(m, z, step=1e-6), m.gradient(z), atol=1e-9)
        assert np.allclose(fd_hessian(m, z, step=1e-5), m.hessian(z), atol=1e-9)


def test_pendulum_analytic_psi_gradient_vs_fd(pendulum, rng):
    from dataclasses import replace

    fd_model = replace(pendulum, psi_gradient=None)
    for _ in range(6):
        z = pendulum_state(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        analytic = sample_fields(pendulum, z)
        fd = sample_fields(fd_model, z)
        assert fd.psi == analytic.psi  # psi itself never uses psi_z
        assert fd.psi_prime == pytest.approx(analytic.psi_prime, rel=1e-7, abs=1e-8)


def test_oscillator_gradient_example():
    m = models.oscillator(1.0)
    z = pendulum_state(1.0, 0.0, wp=0.3).coords
    assert np.allclose(m.gradient(z), [1.0, 0.0, 0.0, 1.0])


def test_oscillator_psi_nonnegative(rng):
    m = models.oscillator(1.7)
    for _ in range(10):
        z = pendulum_state(rng.uniform(-2, 2), rng.uniform(-2, 2), wp=rng.uniform(-1, 1))
        fs = sample_fields(m, z)
        w2 = 1.7**2
        assert fs.psi == pytest.approx(w2 * (z.p[0] ** 2 + w2 * z.q[0] ** 2), rel=1e-12)
        assert fs.psi >= 0.0
        assert fs.psi_prime == pytest.approx(0.0, abs=1e-9)
    origin = pendulum_state(0.0, 0.0)
    assert sample_fields(m, origin).psi == 0.0


def test_oscillator_rejects_bad_omega():
    with pytest.raises(ParameterError):
        models.oscillator(0.0)
    with pytest.raises(ParameterError):
        models.oscillator(-2.0)


def test_free_time_is_flat():
    m = models.free_time()
    z = pendulum_state(0.3, -0.8, wp=2.0).coords
    assert m.value(z) == 2.0
    assert np.allclose(m.gradient(z), [0, 0, 0, 1])
    assert np.count_nonzero(m.hessian(z)) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_free_time_lift_is_degenerate(n):
    from semint.bounds import RegionBounds, derive_constants
    from semint.trajectory import classify_vertex

    m = models.free_time(n)
    zs = np.random.default_rng(n).uniform(-2.0, 2.0, (7, m.dim))
    fields = sample_fields(m, zs)
    assert np.all(fields.psi == 0.0) and np.all(fields.psi_prime == 0.0)
    center = ExtendedState(np.zeros(m.dim), n)
    constants = derive_constants(RegionBounds(1.0, 0.0, 0.0, 0.0, 0.0, center, radius=2.0))
    for z in zs:
        assert classify_vertex(m, ExtendedState(z, n), constants).vertex_kind == "degenerate"


@pytest.mark.parametrize("n", ["x", 1.5, 0, True])
def test_free_time_rejects_a_bad_n(n):
    with pytest.raises(ParameterError, match="integer >= 1"):
        models.by_name("free_time", n=n)
    assert models.by_name("free_time", n=2).n == 2


def test_by_name_lookup():
    assert models.by_name("pendulum").name == "pendulum"
    assert models.by_name("oscillator", omega=2.0).name == "oscillator"
    with pytest.raises(ParameterError):
        models.by_name("nope")


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["pendulum", "oscillator", "free_time"]),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 64),
    scale=st.sampled_from([1.0, 10.0, 1e3]),
)
def test_builtin_stack_equals_rows_bitwise(name, seed, rows, scale):
    model = {"pendulum": models.pendulum(), "oscillator": models.oscillator(1.3),
             "free_time": models.free_time(2)}[name]
    assert model.vectorized
    zs = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, (rows, model.dim))
    for attr in ("value", "gradient", "hessian", "psi_gradient"):
        fn = getattr(model, attr)
        if fn is None:  # free_time differences psi
            continue
        stacked = np.asarray(fn(zs))
        by_row = np.array([fn(z) for z in zs], dtype=float)
        assert stacked.shape == by_row.shape, attr
        assert np.array_equal(stacked, by_row), attr


# SHA-256 of the float64 bytes each callable gives at MODEL_BITS_STATES, one
# row per state; recorded when each built-in still wrote out its own lift
MODEL_BITS_STATES = np.array([[0.3, 0.0, -1.2, 0.5], [2.9, 1.5, 0.7, -0.25], [-1.1, -3.0, 2.4, 1.0]])
MODEL_BITS = {
    "pendulum": {
        "value": "83a33bf03856e191d9671ab7dda421e266bc9d6859171f4623717b437ed56fd7",
        "gradient": "c3e51c8872ff5c5b438522af331e66dfc025f43d09e18c4a13d1c1966eb6d4de",
        "hessian": "d28c3bf168cb3d9fc5781d3ad259fe38656c512fc1a66fcb64e0be3b6502e178",
        "psi_gradient": "e69c8b57707f0025eeaecfd18738710c78190c56d0d389491de629c5d5d18966",
    },
    "oscillator": {
        "value": "e5b5589fd393c46af19dc0760116a6891708f493de910fef66eefca035b26ece",
        "gradient": "84cbea7c306aef12b0d10e02b0d19c390282fdf63c209223b0690291102ea4ca",
        "hessian": "1ac61c4119c1130711a1b514787db53b0a3a954314e2ead38e529ea814fcaadd",
        "psi_gradient": "937cbd4e48d97c6a54a5f85aa76f4a59fbaf7cef94fd41130020ef0d69f639c6",
    },
    "oscillator-1.3": {
        "value": "0dcc8d0f0e84d7a52c9d593492efcd5ad26fe724e246c09f9eba46a9db9b039d",
        "gradient": "4d1be34ed002a3cf6beadf77af4b09a7a46f66d425937be6f22527a97efc5da2",
        "hessian": "825c980a9ed8f1fdaa0845881269381d6d76c08baf47fbbc8f895c5baf27b1bc",
        "psi_gradient": "b48cfd199a65391e9f17920ffdbcae165624dbcc5b91602e984f9534d999db92",
    },
}
# every model by_name builds, as (name, params)
BUILTINS = {
    "pendulum": ("pendulum", {}),
    "oscillator": ("oscillator", {}),
    "oscillator-1.3": ("oscillator", {"omega": 1.3}),
    "free_time-1": ("free_time", {"n": 1}),
    "free_time-2": ("free_time", {"n": 2}),
}
BUILTIN_CALLABLES = [
    pytest.param(name, attr, id=f"{attr}-{name}")
    for name, (model, params) in sorted(BUILTINS.items())
    for attr in ("value", "gradient", "hessian", "psi_gradient")
    if getattr(models.by_name(model, **params), attr) is not None
]


@pytest.mark.parametrize("name, attr", BUILTIN_CALLABLES)
def test_builtin_bits_pinned(name, attr):
    """Each state alone and the states as one stack give the same bytes: the
    recorded ones at MODEL_BITS_STATES, and those of a random 64-row stack."""
    model_name, params = BUILTINS[name]
    fn = getattr(models.by_name(model_name, **params), attr)

    def row_bytes(zs):
        return np.array([fn(z) for z in zs], dtype=float).tobytes()

    zs = np.random.default_rng(64).uniform(-3.0, 3.0, (64, 2 * params.get("n", 1) + 2))
    assert np.asarray(fn(zs), dtype=float).tobytes() == row_bytes(zs)
    if name in MODEL_BITS:
        rows = row_bytes(MODEL_BITS_STATES)
        assert hashlib.sha256(rows).hexdigest() == MODEL_BITS[name][attr]
        assert np.asarray(fn(MODEL_BITS_STATES), dtype=float).tobytes() == rows
