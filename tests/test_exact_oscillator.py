"""The harmonic oscillator as an exact oracle.

For H = wp + E_c with E_c = (p^2 + omega^2 q^2) / 2 every answer has a
closed form.  With den(lambda) = 1 + omega^2 lambda^2 / 4 the midpoint's
energy is E_c / den, so

    g(lambda) = wp + E_c / den(lambda),
    g'(lambda) = -E_c (omega^2 lambda / 2) / den(lambda)^2,

and g vanishes at lambda* = +-(2 / omega) sqrt(-E_c / wp - 1) exactly when
-E_c < wp < 0: no root where H_k = wp + E_c < 0 (g <= H_k) or where wp >= 0
(g > wp).  The midpoint map of a linear system conserves E_c, so a run from
such a state takes lambda* at every step.  And psi = 2 omega^2 E_c has the
gradient (2 omega^4 q, 0, 2 omega^2 p, 0).
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from semint import extphase, models
from semint.bounds import derive_constants, estimate_bounds
from semint.constraint import ConstraintCurve
from semint.errors import StepNonexistenceError
from semint.extphase import apply_J, eval_gradient, psi_gradient
from semint.multiplier import EXISTS_UNIQUE, NONE
from semint.trajectory import StepOptions, choose_conjugate_momentum, classify_vertex, propagate, step

from conftest import pendulum_state
from test_reference_answers import lam_tol

RADIUS = 1.5  # every start and every run stays in |q|, |p| <= 1.5


def _omegas():
    return np.random.default_rng(16).uniform(0.5, 2.0, 4)


def _energy(omega, q, p):
    return 0.5 * (p * p + omega * omega * q * q)


def _den(omega, lam):
    return 1.0 + omega * omega * lam * lam / 4.0


def _exact_g(omega, z, lam):
    return z[3] + _energy(omega, z[0], z[2]) / _den(omega, lam)


def _exact_slope(omega, z, lam):
    return -_energy(omega, z[0], z[2]) * (omega * omega * lam / 2.0) / _den(omega, lam) ** 2


def _lambda_star(omega, z):
    """The positive root of g: (2 / omega) sqrt(-E_c / wp - 1)."""
    return 2.0 / omega * np.sqrt(-_energy(omega, z[0], z[2]) / z[3] - 1.0)


def _opts(omega):
    scaled = estimate_bounds(models.oscillator(omega), pendulum_state(0.0, 0.0), RADIUS, 9).scaled(1.1)
    return StepOptions(bounds=scaled, constants=derive_constants(scaled, 0.5))


def _starts(rng, omega, count, lambda_delta):
    """States whose E_c orbit stays in the box and whose lambda* lies inside
    the search radius: wp = -E_c / den(lambda) for a drawn lambda."""
    out = []
    while len(out) < count:
        q, p = rng.uniform(-1.0, 1.0, 2)
        energy = _energy(omega, q, p)
        if 2.0 * energy > min(1.0, omega * omega) * RADIUS**2:  # |q| <= sqrt(2 E)/omega, |p| <= sqrt(2 E)
            continue
        lam = rng.uniform(0.2, 0.8) * lambda_delta
        out.append(pendulum_state(q, p, wp=-energy / _den(omega, lam)))
    return out


@pytest.fixture(scope="module", params=list(_omegas()), ids=lambda w: f"omega={w:.3f}")
def case(request):
    omega = float(request.param)
    return omega, models.oscillator(omega), _opts(omega)


def test_g_and_derivative_are_the_closed_forms(case, rng):
    omega, model, _ = case
    for _ in range(5):
        q, p = rng.uniform(-1.5, 1.5, 2)
        z = pendulum_state(q, p, wp=rng.uniform(-2.0, 2.0)).coords
        curve = ConstraintCurve(model, z)
        for lam in rng.uniform(-0.5, 0.5, 6):
            scale = 1.0 + abs(z[3]) + _energy(omega, q, p)
            assert abs(curve.g(lam) - _exact_g(omega, z, lam)) <= 1e-14 * scale
            assert abs(curve.derivative(lam) - _exact_slope(omega, z, lam)) <= 1e-14 * scale


def test_step_takes_the_closed_form_root(case, rng):
    """Forward lambda*, and backward -lambda* since g is even in lambda, each
    without a hint (the full search) and with one (the fast path)."""
    omega, model, opts = case
    for z in _starts(rng, omega, 5, opts.constants.lambda_delta):
        lam = _lambda_star(omega, z.coords)
        tol = lam_tol(abs(_exact_slope(omega, z.coords, lam)))
        for direction, want in (("forward", lam), ("backward", -lam)):
            for hint in (None, 0.9 * want):
                assert abs(step(model, z, direction, opts, hint=hint).lam - want) <= tol, (direction, hint)


def test_predicted_verdicts_agree_with_the_exact_root(case, rng):
    """``predict_roots``' verdict on each side (the same on both: g is even)
    against lambda*: exists-unique only where lambda* < Lambda_k, none only
    where lambda* > Lambda_k or g has no root."""
    omega, model, opts = case
    seen = Counter()
    for _ in range(20):
        q, p = rng.uniform(-1.0, 1.0, 2)
        energy = _energy(omega, q, p)
        cap = classify_vertex(model, pendulum_state(q, p, wp=0.0), opts.constants).capital_lambda
        # a root inside or past the window, H_k below zero, wp above zero
        for wp in (-energy / _den(omega, cap * rng.uniform(0.0, 2.0)), -energy * rng.uniform(1.05, 2.0),
                   rng.uniform(0.0, 1.0)):
            z = pendulum_state(q, p, wp=wp)
            prediction = classify_vertex(model, z, opts.constants)
            assert prediction.region.tag == "I" and prediction.capital_lambda == cap
            root = _lambda_star(omega, z.coords) if -energy < wp < 0.0 else None
            for verdict in (prediction.neg_interval, prediction.pos_interval):
                seen[verdict] += 1
                if verdict == EXISTS_UNIQUE:
                    assert root is not None and root < cap, (q, p, wp)
                elif verdict == NONE:
                    assert root is None or root > cap, (q, p, wp)
    assert seen[EXISTS_UNIQUE] > 0 and seen[NONE] > 0, seen


def test_propagate_keeps_lambda_and_conserves_the_energy(case, rng):
    omega, model, opts = case
    (z0,) = _starts(rng, omega, 1, opts.constants.lambda_delta)
    lam = _lambda_star(omega, z0.coords)
    traj = propagate(model, z0, 40, opts)
    assert len(traj.multipliers) == 40  # lambda* may lie past Lambda_k: a noted, not a stopping, event
    assert {e.kind for e in traj.events} <= {"prediction-indeterminate"}
    tol = lam_tol(abs(_exact_slope(omega, z0.coords, lam)))
    assert max(abs(got - lam) for got in traj.multipliers) <= tol
    energy = _energy(omega, z0.q[0], z0.p[0])
    drift = max(abs(_energy(omega, v.q[0], v.p[0]) - energy) for v in traj.vertices)
    assert drift <= 1e-13 * (1.0 + energy)
    assert {v.wp for v in traj.vertices} == {z0.wp}


@pytest.mark.parametrize("where", ["H below zero", "wp zero", "wp above zero"])
def test_no_multiplier_where_g_has_no_root(case, where, rng):
    omega, model, opts = case
    for _ in range(3):
        q, p = rng.uniform(-1.0, 1.0, 2)
        energy = _energy(omega, q, p)
        wp = {"H below zero": -energy * rng.uniform(1.05, 2.0), "wp zero": 0.0,
              "wp above zero": rng.uniform(0.05, 1.0)}[where]
        for direction in ("forward", "backward"):
            with pytest.raises(StepNonexistenceError, match="no .* multiplier") as err:
                step(model, pendulum_state(q, p, wp=wp), direction, opts)
            # g <= H_k < 0 is EU_1(i); H_k / psi_k >= 1 / (2 omega^2) lies far past 5/32 Lambda_k^2
            assert err.value.prediction.case_label == ("EU_1(i)" if where == "H below zero" else "EU_1(iv)")


def test_psi_gradient_from_hessians(case, rng):
    # H_zz is constant, so the differenced term D^3 H[w, w, .] reads exactly 0
    omega, model, _ = case
    stripped = replace(model, psi_gradient=None)
    zs = rng.uniform(-1.5, 1.5, size=(20, 4))
    ws = apply_J(np.array([eval_gradient(model, z) for z in zs]))
    assert np.all(extphase._third_derivative(stripped, zs, ws, np.eye(4), np.full(20, 1e-5)) == 0.0)
    want = np.zeros((20, 4))
    want[:, 0], want[:, 2] = 2 * omega**4 * zs[:, 0], 2 * omega**2 * zs[:, 2]
    assert np.all(np.abs(psi_gradient(stripped, zs) - want) <= 1e-14 * (1.0 + np.abs(want)))


@pytest.mark.parametrize("omega, target", [
    pytest.param(1.0, 0.1),
    pytest.param(1.3, 0.3, marks=pytest.mark.xfail(
        strict=True, reason="wp0 off by 4.8e-5 here (5.0e-5 on the ROADMAP's start): lambda*/target 0.99844")),
    pytest.param(2.0, 1.64, marks=pytest.mark.xfail(
        strict=True, reason="wp0 = +1.6896 against the exact -0.2710: the refinement finds no root")),
])
def test_conjugate_momentum_is_the_exact_wp0(omega, target):
    q, p = 0.7, 0.2
    exact = -_energy(omega, q, p) / _den(omega, target)
    wp0 = choose_conjugate_momentum(models.oscillator(omega), q, 0.0, p, target)
    assert abs(wp0 - exact) <= 1e-6 * abs(exact)
