"""Record semint's reference answers on the inputs the byte pins use.

    PYTHONPATH=src python3 tests/data/record_reference.py

Writes ``reference_answers.json`` next to this file.  Every answer is stored
as ``float.hex``, so the file holds the recorded bits exactly.  Next to each
multiplier it stores, to four significant digits, what
``tests/test_reference_answers.py`` needs to judge a later answer by
tolerance instead of by bits: the slope |dg/dlambda| at the root and the
speed |dz_bar/dlambda| of the midpoint.

The inputs come from the pinned tests themselves (the criterion-1 run, the
500-step Henon-Heiles run, the ``solve_roots`` points, the fast-path pairs,
the conjugate-momentum starts and the two ``RegionBounds`` boxes), so the
answers and the digests always speak about the same runs.  Re-record only
when a change is meant to move results, and never in the change that moves
them: the file is the yardstick that change is measured against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # the tests directory: conftest and the pinned inputs

from conftest import henon_heiles_lift, pendulum_state  # noqa: E402
from test_multiplier import TestSolveRootsPinned  # noqa: E402
from test_trajectory import conjugate_momentum_starts, fast_newton_pairs  # noqa: E402

import semint.trajectory  # noqa: E402
from semint import models  # noqa: E402
from semint.bounds import derive_constants, estimate_bounds  # noqa: E402
from semint.constraint import ConstraintCurve, CubicModel, cubic_model  # noqa: E402
from semint.decoupler import midpoint_sensitivity  # noqa: E402
from semint.errors import LinearSolveError, NonconvergenceError, UnsupportedRegionError  # noqa: E402
from semint.extphase import ExtendedState, sample_fields  # noqa: E402
from semint.multiplier import classify_region, predict_roots, solve_roots  # noqa: E402
from semint.trajectory import StepOptions, choose_conjugate_momentum, propagate  # noqa: E402

PATH = HERE / "reference_answers.json"
TOL_G = 1e-12  # StepOptions.tol_g and the fast path's acceptance test
TOL_LAMBDA = 1e-9  # StepOptions.tol_lambda
SOLVER_TOL = 1e-13  # StepOptions.solver_tol
CONJUGATE_TOL_G = 1e-13  # the Newton tolerance of choose_conjugate_momentum


def _hex(x):
    return None if x is None else float(x).hex()


def _hexes(values):
    return [float(x).hex() for x in values]


def _scale(x):
    """A tolerance scale: four significant digits are plenty."""
    return float(f"{x:.4g}")


def _slope(model, z, lam):
    """|dg/dlambda| at lambda, from a fresh curve at z."""
    return _scale(abs(ConstraintCurve(model, z, tol=SOLVER_TOL).g_and_derivative(lam)[1]))


def _speed(model, lam, z_bar):
    """|dz_bar/dlambda| at a solved midpoint."""
    return _scale(np.linalg.norm(midpoint_sensitivity(model, lam, z_bar)))


def pendulum_setup():
    model = models.pendulum()
    raw = estimate_bounds(model, pendulum_state(0.0, 0.0), 2.5, 17)
    scaled = raw.scaled(1.1)
    return model, raw, scaled, derive_constants(scaled, 0.5)


def henon_heiles_setup():
    model = henon_heiles_lift()
    center = ExtendedState(np.zeros(model.dim), model.n)
    raw = estimate_bounds(model, center, 0.6, 5)
    scaled = raw.scaled(1.1)
    return model, raw, scaled, derive_constants(scaled, 0.5)


def run_answers(model, traj, lambda_target):
    """A trajectory: every multiplier and vertex, with slopes, speeds and events.

    The start's wp0 comes from ``choose_conjugate_momentum``; its slope and
    speed are stored as ``conjugate_momentum_answers`` stores them.
    """
    lams = [float(x) for x in traj.multipliers]
    z0 = traj.vertices[0]
    return {
        "start_slope": _slope(model, z0.coords, lambda_target),
        "start_speed": _scale(abs(sample_fields(model, z0).psi) * lambda_target / 4.0),
        "lambdas": _hexes(lams),
        "slopes": [
            _slope(model, v.coords, lam) for v, lam in zip(traj.vertices, lams)
        ],
        "speeds": [
            _speed(model, lam, m.coords) for m, lam in zip(traj.midpoints, lams)
        ],
        "vertices": [_hexes(v.coords) for v in traj.vertices],
        "events": [[e.index, e.kind, e.detail] for e in traj.events],
    }


def roots_answers(model, z, result):
    """Every observable field of a MultiplierSet, with the slope at each root."""
    return {
        "summary": [
            _hex(v)
            for v in (result.lambda_minus, result.lambda_plus, result.lambda_ghost, result.lambda_zero)
        ],
        "residuals": [[key, _hex(val)] for key, val in sorted(result.residuals.items())],
        "unsearched": [[_hex(a), _hex(b), why] for a, b, why in result.unsearched],
        "roots": [
            {
                "lam": _hex(rec.lam),
                "slope": _slope(model, z, rec.lam),
                "residual": _hex(rec.residual),
                "provenance": rec.provenance,
                "is_ghost": rec.is_ghost,
                "s": _hex(rec.s),
                "in_window": rec.in_window,
            }
            for rec in result.roots
        ],
    }


def solve_roots_answers(model, constants):
    """``TestSolveRootsPinned``'s five calls at each of its points."""
    out = {}
    for name, (q, p, wp) in sorted(TestSolveRootsPinned.POINTS.items()):
        z = pendulum_state(q, p, wp=wp)
        cubic = cubic_model(model, z, constants)
        pred = predict_roots(classify_region(cubic), cubic, constants)
        extend = dict(extend_to=constants.lambda_delta)
        calls = [solve_roots(model, z, pred)]
        calls += [solve_roots(model, z, pred, extend_sides=s, **extend) for s in ("both", "pos", "neg")]
        calls.append(solve_roots(model, z, pred, solver_tol=1e-300, **extend))
        out[name] = {
            "case_label": pred.case_label,
            "calls": [roots_answers(model, z.coords, r) for r in calls],
        }
    return out


def fast_newton_answers(model, constants):
    """``_fast_newton_root`` on ``test_fast_newton_root_pinned``'s pairs."""
    out = []
    for q, p, wp, hint in fast_newton_pairs():
        z = pendulum_state(q, p, wp=wp)
        fields = sample_fields(model, z)
        cubic = CubicModel.from_fields(fields, constants)
        region = classify_region(cubic)
        prediction = predict_roots(region, cubic, constants) if region.tag in ("I", "III") else None
        if prediction is None or prediction.zero_root:
            out.append("no fast path")
            continue
        cap = max(prediction.capital_lambda, constants.lambda_delta)
        got = semint.trajectory._fast_newton_root(
            model, z, fields.grad, cap, cubic, hint, TOL_G, SOLVER_TOL
        )
        if got is None:
            out.append("declined")
            continue
        lam, z_bar = got
        out.append({
            "lam": _hex(lam),
            "slope": _slope(model, z.coords, lam),
            "speed": _speed(model, lam, z_bar),
            "z_bar": _hexes(z_bar),
        })
    return out


def conjugate_momentum_answers():
    """``choose_conjugate_momentum`` on ``test_choose_conjugate_momentum_pinned``'s starts.

    wp0 = wp + psi (lambda_target^2 - lambda^2) / 8 moves by psi lambda / 4
    per unit of the solved lambda, so that factor is stored as the speed.
    """
    built = {"pendulum": models.pendulum(), "oscillator": models.oscillator(2.0),
             "henon-heiles": henon_heiles_lift()}
    out = []
    for name, q0, p0, target in conjugate_momentum_starts():
        model = built[name]
        try:
            wp0 = choose_conjugate_momentum(model, q0, 0.0, p0, target)
        except (NonconvergenceError, LinearSolveError, UnsupportedRegionError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        z = ExtendedState.from_parts(q0, 0.0, p0, wp0)
        psi = sample_fields(model, z).psi
        out.append({
            "wp0": _hex(wp0),
            "slope": _slope(model, z.coords, target),
            "speed": _scale(abs(psi) * target / 4.0),
        })
    return out


def bounds_answers(b):
    return {
        "constants": _hexes((b.M1, b.M2, b.gamma_H, b.N1, b.N2)),
        "active_axes": list(b.active_axes),
        "sample_count": b.sample_count,
    }


def answers():
    """Every reference answer as a JSON-ready dict."""
    pend, pend_raw, pend_scaled, pend_constants = pendulum_setup()
    hh, hh_raw, hh_scaled, hh_constants = henon_heiles_setup()

    pend_opts = StepOptions(bounds=pend_scaled, constants=pend_constants)
    wp0 = choose_conjugate_momentum(pend, 1.0, 0.0, 0.5, 0.1)
    pend_run = propagate(pend, pendulum_state(1.0, 0.5, wp=wp0), 2000, pend_opts)

    hh_opts = StepOptions(bounds=hh_scaled, constants=hh_constants)
    q0, p0 = [0.0, 0.1], [0.35, 0.1]
    wp0 = choose_conjugate_momentum(hh, q0, 0.0, p0, 0.1)
    hh_run = propagate(hh, ExtendedState.from_parts(q0, 0.0, p0, wp0), 500, hh_opts)

    return {
        "tolerances": {
            "tol_g": TOL_G,
            "tol_lambda": TOL_LAMBDA,
            "solver_tol": SOLVER_TOL,
            "conjugate_tol_g": CONJUGATE_TOL_G,
        },
        "runs": {
            "pendulum-2000": run_answers(pend, pend_run, 0.1),
            "henon-heiles-500": run_answers(hh, hh_run, 0.1),
        },
        "solve_roots": solve_roots_answers(pend, pend_constants),
        "fast_newton": fast_newton_answers(pend, pend_constants),
        "conjugate_momentum": conjugate_momentum_answers(),
        "bounds": {
            "pendulum-acceptance": bounds_answers(pend_raw),
            "two-dof-run": bounds_answers(hh_raw),
        },
    }


def dumps(obj, indent=""):
    """JSON with every list of scalars on one line."""
    inner = indent + " "
    if isinstance(obj, dict):
        items = [f"{inner}{json.dumps(k)}: {dumps(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}" if items else "{}"
    if isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        items = [inner + dumps(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(obj)


def main() -> int:
    PATH.write_text(dumps(answers()) + "\n")
    print(f"reference answers written: {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
