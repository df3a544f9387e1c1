"""Today's answers against ``tests/data/reference_answers.json``, by tolerance.

The byte pins elsewhere say "the same bits as before"; this file says "the
same answer".  Case labels, events, flags, provenance, unsearched intervals
and decline/accept outcomes must be equal.  Numbers may move within:

* a multiplier at step k of a run (k = 0 off a run) within
  max(tol_lambda max(1, k/100), 2 tol_g / |g'|): the benchmark oracle's
  drift rule, and the two-sided bound within which a root accepted at
  |g| <= tol_g can lie from the exact one;
* a midpoint or wp0 within |d/dlambda| times its multiplier's tolerance,
  plus 1e-12 for the midpoint solve itself; a vertex within the sum of its
  run's per-step allowances 2 |dz_bar/dlambda| tol_k + 1e-12 up to that
  vertex (z_{k+1} = 2 z_bar_k - z_k), from the start's own wp0 allowance;
* a residual within tol_g, and a region-II s = lambda / c within
  |s / lambda| times its multiplier's tolerance;
* ``RegionBounds``: M1, M2 and gamma_H, maxima of norms of the model's own
  derivatives on a fixed grid, within a relative 1e-12, where a reordering
  of the same arithmetic moves them by a few ulps; N1 and N2, built from psi
  differenced at a step near 1e-5 (twice for N2), within a relative 1e-4,
  above the eps/h^2 ~ 2e-6 such a reordering can cause and far below the
  1.1 safety factor every bound is scaled by.  Active axes and sample
  counts are equal.

``deviations`` lists every comparison as (what, |got - want|, allowed).
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "data"))

import record_reference  # noqa: E402

REFERENCE = json.loads(record_reference.PATH.read_text())
TOLS = REFERENCE["tolerances"]
SOLVE_FLOOR = 1e-12  # what a midpoint solved to solver_tol may move by itself
BOUNDS_RTOL = {"M1": 1e-12, "M2": 1e-12, "gamma_H": 1e-12, "N1": 1e-4, "N2": 1e-4}
DRIFT_STEPS = 100


def _f(text):
    return None if text is None else float.fromhex(text)


def lam_tol(slope, k=0, tol_g=TOLS["tol_g"]):
    drift = TOLS["tol_lambda"] * max(1.0, k / DRIFT_STEPS)
    return max(drift, 2.0 * tol_g / slope) if slope else drift


class Deviations(list):
    """(what, |got - want|, allowed) for every compared number."""

    def number(self, what, got, want, allowed):
        self.append((what, abs(got - want), allowed))

    def exact(self, what, got, want):
        assert got == want, f"{what}: {got!r} != {want!r}"


def compare_run(dev, name, got, want):
    dev.exact(f"{name} steps", len(got["lambdas"]), len(want["lambdas"]))
    dev.exact(f"{name} events", got["events"], want["events"])
    drift = want["start_speed"] * lam_tol(want["start_slope"], tol_g=TOLS["conjugate_tol_g"])
    drift += SOLVE_FLOOR
    for k, (vg, vw) in enumerate(zip(got["vertices"], want["vertices"])):
        for i, (a, b) in enumerate(zip(vg, vw)):
            dev.number(f"{name} vertex {k}[{i}]", _f(a), _f(b), drift)
        if k < len(want["lambdas"]):
            tol = lam_tol(want["slopes"][k], k)
            dev.number(f"{name} lambda {k}", _f(got["lambdas"][k]), _f(want["lambdas"][k]), tol)
            drift += 2.0 * want["speeds"][k] * tol + SOLVE_FLOOR


def compare_roots(dev, name, got, want):
    dev.exact(f"{name} unsearched", got["unsearched"], want["unsearched"])
    dev.exact(f"{name} residual keys", [k for k, _ in got["residuals"]], [k for k, _ in want["residuals"]])
    for (key, a), (_, b) in zip(got["residuals"], want["residuals"]):
        dev.number(f"{name} residual {key}", _f(a), _f(b), TOLS["tol_g"])
    dev.exact(f"{name} root count", len(got["roots"]), len(want["roots"]))
    root_tols = {}
    for j, (rg, rw) in enumerate(zip(got["roots"], want["roots"])):
        what = f"{name} root {j}"
        for key in ("provenance", "is_ghost", "in_window"):
            dev.exact(f"{what} {key}", rg[key], rw[key])
        dev.exact(f"{what} has s", rg["s"] is None, rw["s"] is None)
        lam, tol = _f(rw["lam"]), lam_tol(rw["slope"])
        root_tols[rw["lam"]] = tol
        dev.number(f"{what} lambda", _f(rg["lam"]), lam, tol)
        dev.number(f"{what} residual", _f(rg["residual"]), _f(rw["residual"]), TOLS["tol_g"])
        if rw["s"] is not None and lam != 0.0:
            s = _f(rw["s"])
            dev.number(f"{what} s", _f(rg["s"]), s, abs(s / lam) * tol)
    labels = ("lambda_minus", "lambda_plus", "lambda_ghost", "lambda_zero")
    for label, a, b in zip(labels, got["summary"], want["summary"]):
        dev.exact(f"{name} {label} found", a is None, b is None)
        if b is not None:  # the value of one of the roots above
            dev.number(f"{name} {label}", _f(a), _f(b), root_tols.get(b, 0.0))


def compare_fast_newton(dev, got, want):
    for j, (g, w) in enumerate(zip(got, want, strict=True)):
        dev.exact(f"fast newton {j} outcome", isinstance(g, str) and g, isinstance(w, str) and w)
        if isinstance(w, str):
            continue
        tol = lam_tol(w["slope"])
        dev.number(f"fast newton {j} lambda", _f(g["lam"]), _f(w["lam"]), tol)
        for i, (a, b) in enumerate(zip(g["z_bar"], w["z_bar"], strict=True)):
            dev.number(f"fast newton {j} z_bar[{i}]", _f(a), _f(b), w["speed"] * tol + SOLVE_FLOOR)


def compare_conjugate_momentum(dev, got, want):
    for j, (g, w) in enumerate(zip(got, want, strict=True)):
        dev.exact(f"conjugate momentum {j} outcome", isinstance(g, str) and g, isinstance(w, str) and w)
        if isinstance(w, str):
            continue
        tol = w["speed"] * lam_tol(w["slope"], tol_g=TOLS["conjugate_tol_g"]) + SOLVE_FLOOR
        dev.number(f"conjugate momentum {j} wp0", _f(g["wp0"]), _f(w["wp0"]), tol)


def compare_bounds(dev, name, got, want):
    dev.exact(f"{name} active axes", got["active_axes"], want["active_axes"])
    dev.exact(f"{name} sample count", got["sample_count"], want["sample_count"])
    for key, a, b in zip(BOUNDS_RTOL, got["constants"], want["constants"]):
        b = _f(b)
        dev.number(f"{name} {key}", _f(a), b, BOUNDS_RTOL[key] * abs(b))


def deviations(got):
    """Every comparison of ``got`` (``record_reference.answers()``) with the file."""
    dev = Deviations()
    for name, want in REFERENCE["runs"].items():
        compare_run(dev, name, got["runs"][name], want)
    dev.exact("solve_roots points", sorted(got["solve_roots"]), sorted(REFERENCE["solve_roots"]))
    for name, want in REFERENCE["solve_roots"].items():
        dev.exact(f"{name} case label", got["solve_roots"][name]["case_label"], want["case_label"])
        for i, (g, w) in enumerate(zip(got["solve_roots"][name]["calls"], want["calls"], strict=True)):
            compare_roots(dev, f"{name} call {i}", g, w)
    compare_fast_newton(dev, got["fast_newton"], REFERENCE["fast_newton"])
    compare_conjugate_momentum(dev, got["conjugate_momentum"], REFERENCE["conjugate_momentum"])
    for name, want in REFERENCE["bounds"].items():
        compare_bounds(dev, name, got["bounds"][name], want)
    return dev


@pytest.fixture(scope="module")
def today():
    return record_reference.answers()


def test_every_answer_within_its_tolerance(today):
    dev = deviations(today)
    assert len(dev) > 14000  # every multiplier, vertex, root, wp0 and bound is compared
    worst = [(what, d, tol) for what, d, tol in dev if not d <= tol]
    assert not worst, worst[:10]


def test_tolerances_are_those_of_step_options():
    from semint.trajectory import StepOptions

    assert (StepOptions.tol_g, StepOptions.tol_lambda, StepOptions.solver_tol) == (
        TOLS["tol_g"], TOLS["tol_lambda"], TOLS["solver_tol"]
    )


def test_a_moved_answer_is_caught(today):
    """The comparison bites: one multiplier moved past its tolerance fails."""
    moved = json.loads(json.dumps(today))
    run = moved["runs"]["pendulum-2000"]
    lam = float.fromhex(run["lambdas"][0])
    run["lambdas"][0] = (lam + 2.0 * lam_tol(run["slopes"][0])).hex()
    bad = [what for what, d, tol in deviations(moved) if not d <= tol]
    assert bad == ["pendulum-2000 lambda 0"]
