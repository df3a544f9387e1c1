import hashlib
import inspect
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import semint.constraint
import semint.trajectory
from semint import models
from semint.bounds import DerivedConstants, derive_constants, estimate_bounds
from semint.constraint import ConstraintCurve, CubicModel, g_derivative
from semint.errors import (
    LinearSolveError,
    NonconvergenceError,
    ParameterError,
    StepNonexistenceError,
    UnsupportedRegionError,
)
from semint.extphase import ExtendedState, apply_J, eval_gradient, eval_value, sample_fields
from semint.multiplier import capital_lambda, classify_region, predict_roots, solve_roots
from semint.trajectory import (
    DTHTrajectory,
    StepOptions,
    choose_conjugate_momentum,
    classify_vertex,
    conservation_report,
    interpolate_at_time,
    propagate,
    step,
    symplectic_defect,
)

from conftest import henon_heiles_lift, no_lift_model, pendulum_state


@pytest.fixture(scope="module")
def pend_opts(request):
    model = models.pendulum()
    center = pendulum_state(0.0, 0.0)
    raw = estimate_bounds(model, center, 2.5, 17)
    scaled = raw.scaled(1.1)
    constants = derive_constants(scaled, 0.5)
    return model, StepOptions(bounds=scaled, constants=constants)


def verify_trajectory(model, traj, tol_g=1e-12):
    """Independent post-hoc verifier walking the emitted lists."""
    assert len(traj.midpoints) == len(traj.vertices) - 1 == len(traj.multipliers)
    for k, lam in enumerate(traj.multipliers):
        za, zb, mid = traj.vertices[k], traj.vertices[k + 1], traj.midpoints[k]
        assert np.allclose(
            zb.coords - za.coords,
            lam * apply_J(eval_gradient(model, mid.coords)),
            atol=1e-10,
        )
        assert abs(eval_value(model, mid.coords)) <= tol_g
        assert np.allclose(mid.coords, 0.5 * (za.coords + zb.coords), atol=1e-13)


# forward and backward steps under both policies that take a root at the
# TestSolveRootsPinned points (the others find none or a fixed point)
TAKEN_FULL_PATH_STEPS = 30


class TestStep:
    def test_fixed_point_at_balanced_state(self, pend_opts):
        model, opts = pend_opts
        z = pendulum_state(0.0, 1.0, wp=0.5)  # H = 0, psi = 1
        result = step(model, z, "forward", opts)
        assert result.fixed_point
        assert result.lam == 0.0
        assert result.z_next is z

    def test_forward_step_reference_point(self, pend_opts):
        model, opts = pend_opts
        z = pendulum_state(0.0, 1.0, wp=0.501)  # H = 1e-3
        result = step(model, z, "forward", opts)
        assert result.lam == pytest.approx(np.sqrt(8e-3), abs=1e-3)
        # the time advances by exactly lambda; wp is frozen
        assert result.z_next.t - z.t == pytest.approx(result.lam, abs=1e-12)
        assert result.z_next.wp == pytest.approx(z.wp, abs=1e-14)

    def test_nonexistence_in_region1(self, pend_opts):
        model, opts = pend_opts
        # psi = 1 and H < 0 makes the ratio negative: no multiplier at all
        z = pendulum_state(0.0, 1.0, wp=0.4)
        with pytest.raises(StepNonexistenceError) as err:
            step(model, z, "forward", opts)
        assert err.value.prediction.case_label == "EU_1(i)"

    def test_nonexistence_names_the_window_it_searched(self, pend_opts):
        model, opts = pend_opts
        z = pendulum_state(0.0, 1.0, wp=0.4)
        with pytest.raises(StepNonexistenceError) as err:
            step(model, z, "forward", replace(opts, search_beyond_window=False))
        cap = err.value.prediction.capital_lambda
        assert str(err.value) == f"no forward multiplier within Lambda={cap:.3g} (EU_1(i))"

    def test_degenerate_point_carries_its_prediction(self, pend_opts):
        model, opts = pend_opts
        z = pendulum_state(0.0, 0.0, wp=1.0)  # the equilibrium: psi = psi' = 0
        with pytest.raises(StepNonexistenceError) as err:
            step(model, z, "forward", opts)
        pred = err.value.prediction
        assert pred.vertex_kind == pred.case_label == pred.region.tag == "degenerate"
        assert pred.capital_lambda is None
        traj = propagate(model, z, 5, opts)
        assert traj.multipliers == []
        assert [(e.index, e.kind, e.detail) for e in traj.events] == [(0, "terminated", "degenerate")]

    def test_full_path_records_the_midpoint_it_checked(self, pend_opts, monkeypatch):
        """A full-path step solves no midpoint after its root search: z_mid is
        the midpoint at which the accepted root's |g| was measured."""
        from test_multiplier import TestSolveRootsPinned

        model, opts = pend_opts
        found, original = [], semint.trajectory.solve_roots

        def recording(*args, **kwargs):
            found.append(original(*args, **kwargs))
            return found[-1]

        def no_solve(*args, **kwargs):
            raise AssertionError("step solved a midpoint after its root search")

        monkeypatch.setattr(semint.trajectory, "solve_roots", recording)
        monkeypatch.setattr(semint.trajectory, "solve_midpoint_coords", no_solve)
        taken = Counter()
        for name, (q, p, wp) in sorted(TestSolveRootsPinned.POINTS.items()):
            for direction in ("forward", "backward"):
                for policy in ("default", "follow-ghost"):
                    z = pendulum_state(q, p, wp=wp)
                    try:
                        result = step(model, z, direction, replace(opts, policy=policy))
                    except StepNonexistenceError:
                        continue
                    if result.fixed_point:
                        continue
                    taken[name] += 1
                    (chosen,) = [r for r in found[-1].roots if r.lam == result.lam]
                    assert np.array_equal(result.z_mid.coords, chosen.z_bar)
                    assert np.array_equal(result.z_next.coords, 2.0 * chosen.z_bar - z.coords)
                    # the one exception: a grid cell or theorem endpoint where g
                    # read exactly 0 has its midpoint solved again; none is met here
                    assert abs(eval_value(model, result.z_mid.coords)) == chosen.residual
        assert sum(taken.values()) == TAKEN_FULL_PATH_STEPS, taken

    def test_backward_step(self, pend_opts):
        model, opts = pend_opts
        z = pendulum_state(0.0, 1.0, wp=0.501)
        result = step(model, z, "backward", opts)
        assert result.lam == pytest.approx(-np.sqrt(8e-3), abs=1e-3)
        assert result.z_next.t < z.t

    def test_time_reversal_roundtrip(self, pend_opts):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        z = pendulum_state(1.0, 0.5, wp=wp0)
        fwd = step(model, z, "forward", opts)
        back = step(model, fwd.z_next, "backward", opts)
        assert back.lam == pytest.approx(-fwd.lam, abs=1e-10)
        assert np.allclose(back.z_next.coords, z.coords, atol=1e-9)


@pytest.mark.parametrize(
    "bad",
    [{"tol_g": -1.0}, {"tol_g": float("nan")}, {"tol_lambda": 0.0},
     {"solver_tol": float("inf")}, {"policy": "follow_ghost"}],
    ids=["tol_g-negative", "tol_g-nan", "tol_lambda-zero", "solver_tol-infinite", "policy-misspelt"],
)
def test_step_options_reject_bad_values(pend_opts, bad):
    """Refused when built: tol_g = -1 used to end a step as "no forward multiplier"."""
    _, opts = pend_opts
    with pytest.raises(ParameterError):
        StepOptions(bounds=opts.bounds, constants=opts.constants, **bad)


@pytest.mark.parametrize(
    "callee, param, option",
    [(solve_roots, "tol_g", "tol_g"), (solve_roots, "tol_lambda", "tol_lambda"),
     (solve_roots, "solver_tol", "solver_tol"), (predict_roots, "tol_g", "tol_g"),
     (predict_roots, "shrink", "shrink"), (capital_lambda, "shrink", "shrink"),
     (ConstraintCurve, "tol", "solver_tol")],
)
def test_layer_defaults_equal_step_options(callee, param, option):
    """The layers below trajectory repeat StepOptions' defaults; a drift fails here."""
    assert inspect.signature(callee).parameters[param].default == getattr(StepOptions, option)


class TestPropagate:
    def test_run_satisfies_invariants(self, pend_opts):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        z0 = pendulum_state(1.0, 0.5, wp=wp0)
        traj = propagate(model, z0, 300, opts)
        assert len(traj.vertices) == 301
        verify_trajectory(model, traj)
        dwp = max(abs(b.wp - a.wp) for a, b in zip(traj.vertices, traj.vertices[1:]))
        assert dwp <= 1e-12

    def test_immediate_termination(self, pend_opts):
        model, opts = pend_opts
        z0 = pendulum_state(0.0, 1.0, wp=0.4)  # negative ratio: no step exists
        traj = propagate(model, z0, 10, opts)
        assert len(traj.vertices) == 1
        assert traj.midpoints == [] and traj.multipliers == []
        assert traj.events[0].index == 0
        assert traj.events[0].kind == "terminated"
        assert "EU_1(i)" in traj.events[0].detail

    def test_fixed_point_stops_run(self, pend_opts):
        model, opts = pend_opts
        z0 = pendulum_state(0.0, 1.0, wp=0.5)
        traj = propagate(model, z0, 10, opts)
        assert len(traj.multipliers) == 0
        assert traj.events[0].kind == "fixed-point"

    def test_t_stop(self, pend_opts):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        z0 = pendulum_state(1.0, 0.5, wp=wp0)
        traj = propagate(model, z0, 1000, opts, t_stop=2.0)
        assert traj.vertices[-1].t >= 2.0
        assert traj.vertices[-2].t < 2.0 + 0.2

    def test_evaluation_error_terminates(self):
        # the oscillator overflows at q = 1e200: the run ends with a
        # terminated event naming the exception instead of raising it
        model = models.oscillator()
        center = pendulum_state(0.0, 0.0)
        scaled = estimate_bounds(model, center, 2.0, 5).scaled(1.1)
        opts = StepOptions(bounds=scaled, constants=derive_constants(scaled, 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            traj = propagate(model, pendulum_state(1e200, 0.0), 5, opts)
        assert len(traj.vertices) == 1 and traj.multipliers == []
        assert [(e.index, e.kind) for e in traj.events] == [(0, "terminated")]
        assert traj.events[0].detail.startswith("EvaluationError: ")

    def test_rejects_zero_steps(self, pend_opts):
        model, opts = pend_opts
        with pytest.raises(ParameterError):
            propagate(model, pendulum_state(0, 1, wp=0.501), 0, opts)

    def test_propagate_calls_step_once_per_accepted_step(self, pend_opts, monkeypatch):
        # per-step timing (benchmark/workloads.py) wraps this module-level name;
        # a propagate that bypassed it would time nothing
        model, opts = pend_opts
        calls = []
        original = semint.trajectory.step

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(semint.trajectory, "step", counting)
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        traj = propagate(model, pendulum_state(1.0, 0.5, wp=wp0), 20, opts)
        assert len(traj.multipliers) == 20
        assert calls == traj.vertices[:-1]


# re-recorded when step began recording the midpoint its root search checked
# (step 0 takes the full path, so every later vertex moved at rounding level;
# test_reference_answers.py holds the tolerances)
HENON_HEILES_DIGEST = "fdd0b040e815e227c4daedd379ea6e644d773543d8cafef7838aebc5d34768e6"


def test_henon_heiles_run_pinned(monkeypatch):
    """50 n = 2 steps, all after the first on the warm-started fast path."""
    model = henon_heiles_lift()
    center = ExtendedState(np.zeros(model.dim), model.n)
    scaled = estimate_bounds(model, center, 0.6, 3).scaled(1.1)
    opts = StepOptions(bounds=scaled, constants=derive_constants(scaled, 0.5))
    q0, p0 = [0.0, 0.1], [0.35, 0.1]
    wp0 = choose_conjugate_momentum(model, q0, 0.0, p0, 0.1)
    full_path = []
    original = semint.trajectory.solve_roots

    def counting(*args, **kwargs):
        full_path.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(semint.trajectory, "solve_roots", counting)
    traj = propagate(model, ExtendedState.from_parts(q0, 0.0, p0, wp0), 50, opts)
    assert len(traj.multipliers) == 50 and len(full_path) == 1
    record = ([float(lam) for lam in traj.multipliers], [v.coords.tolist() for v in traj.vertices])
    assert hashlib.sha256(repr(record).encode()).hexdigest() == HENON_HEILES_DIGEST


# re-recorded when step began recording the midpoint its root search checked
HENON_HEILES_500_DIGEST = "0ce5f5923bd56814408c0946f571a3d8b4cf579dc3fc87b30c51b8e603925ca8"


def henon_heiles_run(n_steps, samples=5):
    """``propagate`` from the two-dof-run seed-0 start of ``benchmark/workloads.py``."""
    model = henon_heiles_lift()
    center = ExtendedState(np.zeros(model.dim), model.n)
    scaled = estimate_bounds(model, center, 0.6, samples).scaled(1.1)
    opts = StepOptions(bounds=scaled, constants=derive_constants(scaled, 0.5))
    q0, p0 = [0.0, 0.1], [0.35, 0.1]
    wp0 = choose_conjugate_momentum(model, q0, 0.0, p0, 0.1)
    return propagate(model, ExtendedState.from_parts(q0, 0.0, p0, wp0), n_steps, opts)


def test_henon_heiles_long_run_pinned():
    """500 n = 2 steps: the half-step probe runs on 395 of them (27 of the 50
    in the pin above)."""
    traj = henon_heiles_run(500)
    assert len(traj.multipliers) == 500
    record = ([float(lam) for lam in traj.multipliers], [v.coords.tolist() for v in traj.vertices])
    assert hashlib.sha256(repr(record).encode()).hexdigest() == HENON_HEILES_500_DIGEST


# the pendulum's quartic envelope certifies every step's sign; 27 of the 49
# Henon-Heiles fast steps need the half-step probe
@pytest.mark.parametrize("run, probes_expected", [("pendulum", 0), ("henon-heiles", 27)])
def test_fast_path_solves_for_the_slope_only_on_newton_steps(
    run, probes_expected, pend_opts, monkeypatch
):
    """Each fast-path Newton iteration evaluates g; only those that go on to
    take a Newton step pay a sensitivity solve for g', the accepting one not.
    Every midpoint solve is one g evaluation: none follows the probe, and the
    recorded midpoint is the one whose g accepted the root."""
    calls, inside = [], []  # one record per fast-path call; the open one
    original_fast = semint.trajectory._fast_newton_root
    original_g = ConstraintCurve.g
    original_sensitivity = semint.constraint.midpoint_sensitivity
    original_solve = semint.constraint._midpoint_newton

    def counting_fast(*args, **kwargs):
        inside.append({"g": [], "sensitivity": 0, "solves": 0})
        try:
            inside[-1]["got"] = original_fast(*args, **kwargs)
        finally:
            calls.append(inside.pop())
        return calls[-1]["got"]

    def counting_g(self, lam):
        val = original_g(self, lam)
        if inside:
            inside[-1]["g"].append((lam, val))
        return val

    def counting_sensitivity(*args):
        if inside:
            inside[-1]["sensitivity"] += 1
        return original_sensitivity(*args)

    def counting_solve(*args):
        if inside:
            inside[-1]["solves"] += 1
        return original_solve(*args)

    monkeypatch.setattr(semint.trajectory, "_fast_newton_root", counting_fast)
    monkeypatch.setattr(ConstraintCurve, "g", counting_g)
    monkeypatch.setattr(semint.constraint, "midpoint_sensitivity", counting_sensitivity)
    monkeypatch.setattr(semint.constraint, "_midpoint_newton", counting_solve)
    if run == "pendulum":
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        traj = propagate(model, pendulum_state(1.0, 0.5, wp=wp0), 50, opts)
    else:
        model = henon_heiles_lift()
        traj = henon_heiles_run(50, samples=3)
    assert len(traj.multipliers) == 50
    # every step after the first takes the fast path and accepts its root
    assert [c["got"][0] for c in calls] == traj.multipliers[1:]
    newton_evals = probes = sensitivity = 0
    for c, z_mid in zip(calls, traj.midpoints[1:]):
        evals, root = c["g"], c["got"][0]
        assert c["solves"] == len(evals)
        if len(evals) > 1 and evals[-1][0] == 0.5 * root:  # the half-step probe
            evals, probes = evals[:-1], probes + 1
        assert evals[-1][0] == root
        assert eval_value(model, z_mid.coords) == evals[-1][1]
        newton_evals += len(evals)
        sensitivity += c["sensitivity"]
    assert probes == probes_expected and newton_evals > len(calls)
    assert sensitivity == newton_evals - len(calls)


@pytest.mark.parametrize("run", ["pendulum", "henon-heiles"])
def test_one_state_checks_run_no_numpy_sum(run, pend_opts):
    """Every one-state model result of an n <= 2 run, at the field sample,
    inside the midpoint kernels and at the hand-offs of a checked gradient to
    the curve and to ``midpoint_sensitivity``, is judged by ``_checked``'s sum
    of Python floats; numpy's sum, 1.0 us a call, never runs there."""
    import builtins
    import sys

    from semint import extphase

    sums = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is extphase._checked.__code__:
            if arg is builtins.sum:
                sums["float"] += 1
            elif arg.__name__ == "sum":
                sums["numpy"] += 1

    sys.setprofile(profile)
    try:
        if run == "pendulum":
            model, opts = pend_opts
            wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
            traj = propagate(model, pendulum_state(1.0, 0.5, wp=wp0), 50, opts)
        else:
            traj = henon_heiles_run(20, samples=3)
    finally:
        sys.setprofile(None)
    assert len(traj.multipliers) == (50 if run == "pendulum" else 20)
    assert sums["numpy"] == 0 and sums["float"] > 10 * len(traj.multipliers)


def test_henon_heiles_steps_call_no_psi_gradient(monkeypatch):
    """The Henon-Heiles lift has no analytic psi gradient; its field samples
    read psi' off two Hessians, so a run calls ``psi_gradient`` only through
    the bounds' own binding, in the set-up."""
    from semint import extphase

    calls = []
    original = extphase.psi_gradient
    monkeypatch.setattr(extphase, "psi_gradient", lambda *args: calls.append(args) or original(*args))
    traj = henon_heiles_run(20, samples=3)
    assert len(traj.multipliers) == 20 and calls == []


class TestFastPathAgreesWithFullPath:
    """A hint only seeds the warm-started Newton of the fast path.

    Whatever the hint, ``step`` must return the multiplier the full path
    finds without one, with the same flags and case label; a declined fast
    path falls back to the full path itself.  Both paths stop at |g| <= tol_g, so each
    lies within tol_g / |g'| of the true root and the two within twice that
    (an ill-conditioned region III root with |g'| ~ 9e-5 differs by 1.0006
    tol_g / |g'|), or within the bisection width tol_lambda.
    """

    @staticmethod
    def vertex(region, q, p, lam):
        """A pendulum vertex whose cubic model puts a forward root near lam."""
        if region == "I":
            H = models.pendulum_psi(q, p) * lam * lam / 8.0
        else:  # on the psi = 0 curve, where psi' carries the cubic
            from test_multiplier import on_psi_zero_curve

            # |q| in [1.75, 2.4]: cos q < 0, and the curve's |p| stays below 2.5
            q, p = np.copysign(1.75 + 0.65 * abs(q) / 2.0, q), np.copysign(1.0, p)
            p *= on_psi_zero_curve(abs(q))
            H = models.pendulum_psi_prime(q, p) * lam**3 / 24.0
        return pendulum_state(q, p, wp=H - (0.5 * p * p - np.cos(q)))

    @settings(max_examples=80, deadline=None)
    @given(
        region=st.sampled_from(["I", "III"]),
        q=st.floats(-2.0, 2.0),
        p=st.floats(-2.0, 2.0),
        lam=st.floats(0.005, 0.15),
        spread=st.floats(-0.2, 0.2),
    )
    # an in-window root on an indeterminate side: EU_1(indeterminate), Lambda_k 0.0233
    @example(region="I", q=0.0, p=1.0, lam=0.021795515745053128, spread=-0.08)
    def test_hinted_step_matches_unhinted(self, pend_opts, region, q, p, lam, spread):
        model, opts = pend_opts
        z = self.vertex(region, q, p, lam)
        try:
            full = step(model, z, "forward", opts)
        except StepNonexistenceError:
            assume(False)
        assume(full.prediction.region.tag == region and not full.fixed_point)
        hinted = step(model, z, "forward", opts, hint=full.lam * (1.0 + spread))
        slope = g_derivative(model, full.lam, z, tol=opts.solver_tol)
        tol = max(opts.tol_lambda, 2.0 * opts.tol_g / abs(slope))
        assert abs(hinted.lam - full.lam) <= tol
        flags = ("fixed_point", "took_ghost", "ghost_alongside", "scanned", "beyond_window")
        assert [getattr(hinted, f) for f in flags] == [getattr(full, f) for f in flags]
        assert hinted.prediction.case_label == full.prediction.case_label


class TestFastPathSafetyNets:
    """The half-step probe that rejects a fast-path root, and the fallback
    to the full path when the fast Newton fails (criterion-1 options)."""

    def test_probe_rejects_a_root_past_an_earlier_crossing(self, pend_opts, monkeypatch):
        # region I, EU_1(iv): H_k = psi_k (0.1 lambda_delta)^2 / 8, and g has
        # roots near 0.0128 and 0.0957 in (0, lambda_delta)
        model, opts = pend_opts
        z = pendulum_state(-2.3, -0.9, wp=-1.0712757326195772)
        fields = sample_fields(model, z)
        cubic = CubicModel.from_fields(fields, opts.constants)
        prediction = predict_roots(classify_region(cubic), cubic, opts.constants)
        assert prediction.case_label == "EU_1(iv)"
        cap = max(prediction.capital_lambda, opts.constants.lambda_delta)
        probes, original_g = [], ConstraintCurve.g

        def recording_g(self, lam):
            val = original_g(self, lam)
            probes.append((lam, val))
            return val

        monkeypatch.setattr(ConstraintCurve, "g", recording_g)
        got = semint.trajectory._fast_newton_root(
            model, z, fields.grad, cap, cubic, 0.0957, opts.tol_g, opts.solver_tol
        )
        monkeypatch.undo()
        assert got is None
        # the last g is the probe at half the root Newton landed on (0.09575),
        # where the quartic envelope cannot certify the cubic's sign
        half, probe = probes[-1]
        assert 0.0478 < half < 0.0479
        assert abs(cubic(half)) < cubic.quartic_bound(half)
        assert probe < 0.0 < cubic.H_k
        hinted = step(model, z, "forward", opts, hint=0.0957)
        full = step(model, z, "forward", opts)
        assert hinted.lam.hex() == full.lam.hex() == "0x1.a3676897d9f20p-7"  # 0.0127992
        assert hinted.z_next.coords.tobytes() == full.z_next.coords.tobytes()

    @pytest.mark.parametrize(
        "error", [NonconvergenceError("forced", 1.0, 11), LinearSolveError("forced")],
        ids=["nonconvergence", "linear-solve"],
    )
    def test_failed_fast_newton_falls_back_to_the_full_path(self, pend_opts, monkeypatch, error):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        z0 = pendulum_state(1.0, 0.5, wp=wp0)
        full = step(model, z0, "forward", opts)
        calls = []

        def failing(*args):
            calls.append(args)
            raise error

        monkeypatch.setattr(semint.trajectory, "_fast_newton_root", failing)
        hinted = step(model, z0, "forward", opts, hint=0.1)
        assert len(calls) == 1
        assert hinted.lam == full.lam
        assert hinted.z_next.coords.tobytes() == full.z_next.coords.tobytes()


class TestClassifyVertex:
    def test_region1_cases(self, pend_opts):
        model, opts = pend_opts
        constants = opts.constants
        assert classify_vertex(model, pendulum_state(0, 1, wp=0.4), constants).vertex_kind == "none"
        assert (
            classify_vertex(model, pendulum_state(0, 1, wp=0.5), constants).vertex_kind
            == "fixed-point"
        )
        vc = classify_vertex(model, pendulum_state(0, 1, wp=0.5 + 1e-6), constants)
        assert vc.vertex_kind == "pass-through"
        assert vc.region.tag == "I"
        # far above the window: no multiplier can exist
        assert (
            classify_vertex(model, pendulum_state(0, 1, wp=1.5), constants).vertex_kind == "none"
        )

    def test_pass_through_implies_both_roots(self, pend_opts):
        from semint.constraint import cubic_model
        from semint.multiplier import classify_region, predict_roots, solve_roots

        model, opts = pend_opts
        constants = opts.constants
        hits = 0
        for q in np.linspace(-1.2, 1.2, 4):
            for p in np.linspace(0.8, 1.8, 4):
                base = pendulum_state(q, p)
                fields = sample_fields(model, base)
                if abs(fields.psi) < 0.3:
                    continue
                cubic0 = cubic_model(model, base, constants)
                region0 = classify_region(cubic0)
                if region0.tag != "I":
                    continue
                pred0 = predict_roots(region0, cubic0, constants)
                target = 0.5 * (3.0 / 32.0) * pred0.capital_lambda**2
                z = pendulum_state(q, p, wp=target * fields.psi - (fields.H - base.wp))
                vc = classify_vertex(model, z, constants)
                if vc.vertex_kind != "pass-through":
                    continue
                cubic = cubic_model(model, z, constants)
                region = classify_region(cubic)
                roots = solve_roots(model, z, predict_roots(region, cubic, constants))
                assert roots.lambda_plus is not None and roots.lambda_minus is not None
                hits += 1
        assert hits >= 6

    def test_region3_cases(self, pend_opts):
        from test_multiplier import on_psi_zero_curve, pendulum_wp_for_ratio

        model, opts = pend_opts
        constants = opts.constants
        q = 2.0
        p = on_psi_zero_curve(q)
        psip = sample_fields(model, pendulum_state(q, p)).psi_prime
        # H = 0 with psi = 0, psi' != 0: fixed point
        z0 = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, 0.0, psip))
        assert classify_vertex(model, z0, constants).vertex_kind == "fixed-point"
        # small |H/psi'|: trajectory begins or ends here
        vc = classify_vertex(
            model,
            pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, 1e-12, psip)),
            constants,
        )
        assert vc.vertex_kind == "begins-or-ends"
        assert vc.region.tag == "III"
        # large ratio: nothing
        vc = classify_vertex(
            model,
            pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, 1.0, psip)),
            constants,
        )
        assert vc.vertex_kind == "none"

    def test_region2_bifurcation_cases(self, pendulum):
        from test_multiplier import on_psi_zero_curve, pendulum_wp_for_ratio

        q = 2.0
        p = on_psi_zero_curve(q)
        psi_target = 8e-4
        for _ in range(60):
            val = models.pendulum_psi(q, p) - psi_target
            p -= val / (2.0 * p * np.cos(q))
        center = pendulum_state(q, p, wp=-(0.5 * p * p - np.cos(q)))
        raw = estimate_bounds(pendulum, center, 0.35, 13)
        constants = derive_constants(raw.scaled(1.1), 0.5)
        fields = sample_fields(pendulum, pendulum_state(q, p))
        ratio2 = (fields.psi / fields.psi_prime) ** 2

        z_zero = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, 0.0, fields.psi))
        assert classify_vertex(pendulum, z_zero, constants).vertex_kind == "bifurcates"

        r_small = 0.5 * (9.0 / 125.0) * ratio2
        z_pos = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, r_small, fields.psi))
        assert classify_vertex(pendulum, z_pos, constants).vertex_kind == "bifurcates"

        # negative ratio small enough for the ghost window, with H above tol_g
        z_neg = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, -1e-7, fields.psi))
        assert classify_vertex(pendulum, z_neg, constants).vertex_kind == "begins-or-ends"

    def test_equilibrium_degenerate(self, pend_opts):
        model, opts = pend_opts
        vc = classify_vertex(model, pendulum_state(0, 0, wp=1.0), opts.constants)
        assert vc.vertex_kind == "degenerate"


# recorded before the vertex kind came from predict_roots, when a separate
# vertex-class record carried these fields
SWEEP_DIGEST = "fafbdd39a7043b37110ae0d1f4b90c5536c541c29355d81ff3ae8ee9d4c6dfc5"


def test_case_table_sweep_pinned():
    """The case-table answer for a vertex over a synthetic cubic-model sweep.

    About 32k cells: psi and psi' at 0 and at +-powers of ten, H at 0 and
    +-113 log-spaced magnitudes in [1e-14, 1], all under the unit-bounds
    constants; every vertex kind occurs.
    """
    constants = DerivedConstants(gamma_z=0.0, gamma_h=0.0, K=0.28125, lambda_delta=0.375)
    psis = [0.0] + [s * 10.0**e for e in (-6, -4, -3, -2, -1, 0) for s in (1, -1)]
    psi_primes = [0.0] + [s * 10.0**e for e in (-3, -1, 0, 0.5, 1) for s in (1, -1)]
    Hs = [0.0] + [s * 10.0**e for e in np.linspace(-14, 0, 113).tolist() for s in (1, -1)]
    digest = hashlib.sha256()
    kinds = Counter()
    for psi in psis:
        for psip in psi_primes:
            for H in Hs:
                cubic = CubicModel(H_k=H, psi_k=psi, psi_prime_k=psip, K=constants.K,
                                   lambda_delta=constants.lambda_delta)
                pred = predict_roots(classify_region(cubic), cubic, constants)
                tag = pred.region.tag
                ratio_kind = {"degenerate": None, "III": "H/psi_prime"}.get(tag, "H/psi")
                line = (f"{pred.vertex_kind}|{pred.case_label}|{pred.ratio!r}"
                        f"|{pred.capital_lambda!r}|{ratio_kind}|{tag}\n")
                digest.update(line.encode())
                kinds[pred.vertex_kind] += 1
    assert set(kinds) == {"pass-through", "bifurcates", "begins-or-ends", "none",
                          "fixed-point", "indeterminate", "degenerate"}
    assert sum(kinds.values()) == 32461
    assert digest.hexdigest() == SWEEP_DIGEST


class TestGhostPolicy:
    @pytest.fixture()
    def bifurcation_site(self, pendulum):
        from test_multiplier import on_psi_zero_curve, pendulum_wp_for_ratio

        q = 2.0
        p = on_psi_zero_curve(q)
        for _ in range(60):
            val = models.pendulum_psi(q, p) - 8e-4
            p -= val / (2.0 * p * np.cos(q))
        center = pendulum_state(q, p, wp=-(0.5 * p * p - np.cos(q)))
        raw = estimate_bounds(pendulum, center, 0.35, 13)
        bounds = raw.scaled(1.1)
        constants = derive_constants(bounds, 0.5)
        fields = sample_fields(pendulum, pendulum_state(q, p))
        r = 0.8 * (9.0 / 125.0) * (fields.psi / fields.psi_prime) ** 2
        z = pendulum_state(q, p, wp=pendulum_wp_for_ratio(q, p, r, fields.psi))
        return z, bounds, constants, fields

    def test_default_policy_takes_regular_root_logs_bifurcation(
        self, pendulum, bifurcation_site
    ):
        z, bounds, constants, fields = bifurcation_site
        opts = StepOptions(bounds=bounds, constants=constants, tol_g=1e-13)
        result = step(pendulum, z, "forward", opts)
        assert not result.took_ghost
        assert result.ghost_alongside
        traj = propagate(pendulum, z, 1, opts)
        assert any(e.kind == "bifurcation" for e in traj.events)

    def test_follow_ghost_policy_takes_ghost_branch(self, pendulum, bifurcation_site):
        z, bounds, constants, fields = bifurcation_site
        opts = StepOptions(bounds=bounds, constants=constants, tol_g=1e-13, policy="follow-ghost")
        result = step(pendulum, z, "forward", opts)
        assert result.took_ghost
        # the ghost branch multiplier stays bounded away from zero
        c = abs(fields.psi / fields.psi_prime)
        assert abs(result.lam) > (6.0 / 5.0) * c
        traj = propagate(pendulum, z, 1, opts)
        assert any(e.kind == "ghost-taken" for e in traj.events)


class TestConservation:
    def test_pendulum_report(self, pend_opts):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        z0 = pendulum_state(1.0, 0.5, wp=wp0)
        traj = propagate(model, z0, 200, opts)
        report = conservation_report(model, traj, defect_stride=25)
        assert report.max_energy_residual <= 1e-10
        assert report.max_wp_drift <= 1e-12
        assert report.max_symplectic_defect <= 1e-6

    def test_oscillator_energy_machine_precision(self):
        model = models.oscillator(1.0)
        center = pendulum_state(0.0, 0.0)
        raw = estimate_bounds(model, center, 2.0, 9)
        constants = derive_constants(raw.scaled(1.1), 0.5)
        opts = StepOptions(bounds=raw.scaled(1.1), constants=constants)
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.0, 0.05)
        z0 = pendulum_state(1.0, 0.0, wp=wp0)
        traj = propagate(model, z0, 100, opts)
        assert len(traj.multipliers) == 100
        report = conservation_report(model, traj, defect_stride=50)
        assert report.max_energy_residual <= 5e-14

    def test_symplectic_defect_random_states(self, pend_opts, rng):
        model, opts = pend_opts
        for _ in range(5):
            z = pendulum_state(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), wp=rng.uniform(-1, 1))
            defect = symplectic_defect(model, z, 0.1)
            assert defect <= 1e-6

    def test_symplectic_defect_pinned(self):
        # recorded before J was applied through extphase.apply_J; must stay bitwise
        from conftest import henon_heiles_lift

        cases = [
            (models.pendulum(), [0.7, 0.0, -0.4, 0.1], 0.1, 6.3867014292779906e-12),
            (models.pendulum(), [2.9, 1.5, 0.3, -0.2], -0.07, 1.1574545381073221e-10),
            (models.oscillator(1.3), [1.1, 0.0, 0.6, 0.0], 0.2, 2.5574104162871777e-10),
            (henon_heiles_lift(), [0.1, -0.05, 0.0, 0.2, 0.15, 0.0], 0.05, 2.598376266741207e-11),
        ]
        for model, coords, lam, expected in cases:
            z = ExtendedState(np.array(coords), model.n)
            assert symplectic_defect(model, z, lam) == expected, model.name


class TestChooseConjugateMomentum:
    def test_pendulum_reference_value(self, pend_opts):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        psi0 = 0.25 * np.cos(1.0) + np.sin(1.0) ** 2
        leading = np.cos(1.0) - 0.125 + psi0 * 0.00125
        assert wp0 == pytest.approx(leading, abs=2e-4)
        # the solved forward multiplier must land near the target
        result = step(model, pendulum_state(1.0, 0.5, wp=wp0), "forward", opts)
        assert 0.09 <= result.lam <= 0.11

    def test_small_target_limit(self, pend_opts):
        model, _ = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 1e-4)
        assert wp0 == pytest.approx(np.cos(1.0) - 0.125, abs=1e-8)

    def test_halving_target_quarters_energy(self, pend_opts):
        model, _ = pend_opts
        h_values = []
        for target in (0.08, 0.04):
            wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, target)
            h_values.append(eval_value(model, pendulum_state(1.0, 0.5, wp=wp0).coords))
        assert h_values[0] / h_values[1] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("kind, message", [
        ("no-wp", "H does not read wp"),  # the secant loop returned wp0 = 1.0
        ("quadratic-wp", "the balance reads "),  # it iterated to 0.912525
        ("flat-gradient", "dH/dwp reads 0 "),  # it returned the uncorrected 0.416356
    ], ids=["no-wp", "quadratic-wp", "flat-gradient"])
    def test_refuses_a_model_that_is_no_lift(self, kind, message):
        with pytest.raises(ParameterError, match=message) as err:
            choose_conjugate_momentum(no_lift_model(kind), 1.0, 0.0, 0.5, 0.1)
        assert str(err.value).endswith("; the completion needs H = a wp + H_c with a != 0")

    def test_psi_zero_unsupported(self, pend_opts):
        from test_multiplier import on_psi_zero_curve

        model, _ = pend_opts
        q = 2.0
        p = on_psi_zero_curve(q)
        with pytest.raises(UnsupportedRegionError):
            choose_conjugate_momentum(model, q, 0.0, p, 0.1)


class TestInterpolation:
    def test_linear_on_segments(self, pend_opts):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        traj = propagate(model, pendulum_state(1.0, 0.5, wp=wp0), 30, opts)
        t_mid = 0.5 * (traj.vertices[3].t + traj.vertices[4].t)
        z = interpolate_at_time(traj, t_mid)
        assert np.allclose(
            z.coords, 0.5 * (traj.vertices[3].coords + traj.vertices[4].coords), atol=1e-12
        )
        # vertex times are reproduced exactly
        z3 = interpolate_at_time(traj, traj.vertices[3].t)
        assert np.allclose(z3.coords, traj.vertices[3].coords, atol=1e-14)

    def test_zero_length_segment_gives_its_first_vertex(self):
        # two vertices at one time: no weight to interpolate with
        a, b = pendulum_state(0.0, 1.0), pendulum_state(0.5, 0.2)
        traj = DTHTrajectory(vertices=[a, b], midpoints=[pendulum_state(0.25, 0.6)], multipliers=[0.0])
        assert interpolate_at_time(traj, 0.0) is a

    def test_out_of_range_rejected(self, pend_opts):
        model, opts = pend_opts
        wp0 = choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
        traj = propagate(model, pendulum_state(1.0, 0.5, wp=wp0), 5, opts)
        with pytest.raises(ParameterError):
            interpolate_at_time(traj, -1.0)


# recorded before the three Newton-on-g loops (fast path, solve_roots polish,
# conjugate-momentum refinement) became ConstraintCurve.newton; must stay bitwise
CONJUGATE_MOMENTUM_DIGEST = "d139f8e9a7e1a7cac270602aba8b6c65ebd4b0afa49704d48b5b7288095c85c6"
# starts whose refinement does not stop at |g| <= 1e-13: the first four
# leave (0, 4 lambda_target), the fourth on its 20th step; the fifth runs
# out of its 20 steps; the midpoint solve of the last fails
CONJUGATE_MOMENTUM_STARTS = [
    ("pendulum", -2.111110358175527, 1.8321963589390124, 0.5862010913567097),
    ("oscillator", 2.2682492412744457, 0.8625777362829585, 1.6430202925215158),
    ("henon-heiles", [0.6337191641996615, 0.19197840627379142],
     [0.09476921574724768, 0.7222440374728301], 1.5982437012200765),
    ("pendulum", -2.2258877539967585, 2.4312525803035507, 0.3083320018674782),
    ("pendulum", -1.9445326375316379, 2.47933816221971, 0.11185879358780944),
    ("henon-heiles", [0.5447659787876862, 0.41530914912259986],
     [-0.5069302275001842, 0.5152898894726882], 1.594485395012439),
]


def conjugate_momentum_starts(seed=3, per_model=25):
    """Seeded (model, q0, p0, lambda_target) starts plus the ones above."""
    rng = np.random.default_rng(seed)
    starts = []
    for name, n, box in (("pendulum", 1, 2.5), ("oscillator", 1, 2.5), ("henon-heiles", 2, 0.75)):
        for _ in range(per_model):
            q0, p0 = rng.uniform(-box, box, n).tolist(), rng.uniform(-box, box, n).tolist()
            target = float(10 ** rng.uniform(-4, 0.3))
            starts.append((name, q0 if n == 2 else q0[0], p0 if n == 2 else p0[0], target))
    return starts + CONJUGATE_MOMENTUM_STARTS


def test_choose_conjugate_momentum_pinned():
    built = {"pendulum": models.pendulum(), "oscillator": models.oscillator(2.0),
             "henon-heiles": henon_heiles_lift()}
    record = []
    for name, q0, p0, target in conjugate_momentum_starts():
        try:
            record.append(choose_conjugate_momentum(built[name], q0, 0.0, p0, target))
        except (NonconvergenceError, LinearSolveError, UnsupportedRegionError) as exc:
            # a failed start is part of the record
            record.append(f"{type(exc).__name__}: {exc}")
    assert [r for r in record if isinstance(r, str)] == [
        "NonconvergenceError: midpoint solve did not reach tol=1e-13 in 50 iterations"
    ]
    assert hashlib.sha256(repr(record).encode()).hexdigest() == CONJUGATE_MOMENTUM_DIGEST


# recorded before the fast path's loop became ConstraintCurve.newton; must
# stay bitwise
FAST_NEWTON_DIGEST = "6d6621ec9e27161bee0edd5a849b728820cdf60c6fb59a91a6853de019558759"
FAST_NEWTON_KINDS = {"root": 64, "declined": 230, "no fast path": 9}
# pendulum (q, p, wp, hint) pairs whose fast-path Newton makes 12 g
# evaluations without reaching |g| <= tol_g, so it declines
FAST_NEWTON_CAPPED = [
    (-2.2886966943684426, 0.9413246019499284, -1.1008523210487942, 0.015268138682167353),
    (-2.086183359662912, -1.2194087488018002, -1.2363487561090392, 0.007156866480716233),
    (-1.9637524894852842, 1.6644954418731102, -1.7682727990451852, 0.03549797910551046),
]


def fast_newton_pairs(seed=11, count=300):
    """Seeded pendulum (q, p, wp, hint) pairs whose cubic model puts a
    forward root near a drawn lambda, some of them near a double root."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        q, p = rng.uniform(-2.5, 2.5, 2)
        psi, psip = models.pendulum_psi(q, p), models.pendulum_psi_prime(q, p)
        mode = rng.integers(3)
        if mode == 0:
            lam = 10 ** rng.uniform(-2, -0.5)
        elif mode == 1 and psip != 0:  # g' vanishes near the root
            lam = 2 * abs(psi / psip) / np.sqrt(3) * (1 + rng.uniform(-0.03, 0.03))
        else:
            lam = 10 ** rng.uniform(-1, 0.3)
        H = psi * lam * lam / 8.0 + psip * lam**3 / 24.0 * rng.uniform(0, 1)
        hint = lam * 10 ** rng.uniform(-0.7, 0.7)
        pairs.append((float(q), float(p), float(H - (0.5 * p * p - np.cos(q))), float(hint)))
    return pairs + FAST_NEWTON_CAPPED


def fast_newton_outcome(model, constants, q, p, wp, hint):
    """``_fast_newton_root`` at one pair, with the search cap ``step`` uses."""
    z = pendulum_state(q, p, wp=wp)
    fields = sample_fields(model, z)
    cubic = CubicModel.from_fields(fields, constants)
    region = classify_region(cubic)
    if region.tag not in ("I", "III"):
        return "no fast path"
    prediction = predict_roots(region, cubic, constants)
    if prediction.zero_root:
        return "no fast path"
    cap = max(prediction.capital_lambda, constants.lambda_delta)
    got = semint.trajectory._fast_newton_root(
        model, z, fields.grad, cap, cubic, hint, 1e-12, 1e-13
    )
    return "declined" if got is None else (got[0].hex(), [x.hex() for x in got[1].tolist()])


def test_fast_newton_root_pinned(pend_opts):
    model, opts = pend_opts
    record = [fast_newton_outcome(model, opts.constants, *pair) for pair in fast_newton_pairs()]
    kinds = Counter("root" if isinstance(r, tuple) else r for r in record)
    assert kinds == FAST_NEWTON_KINDS
    assert hashlib.sha256(repr(record).encode()).hexdigest() == FAST_NEWTON_DIGEST


@pytest.mark.parametrize("pair", FAST_NEWTON_CAPPED)
def test_fast_newton_root_declines_after_twelve_g_evaluations(pair, pend_opts, monkeypatch):
    model, opts = pend_opts
    lams, original_g = [], ConstraintCurve.g

    def counting_g(self, lam):
        lams.append(lam)
        return original_g(self, lam)

    monkeypatch.setattr(ConstraintCurve, "g", counting_g)
    assert fast_newton_outcome(model, opts.constants, *pair) == "declined"
    assert len(lams) == 12
