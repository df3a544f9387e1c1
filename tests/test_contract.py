"""The argument contract of every public entry point, driven by one signature table.

``signatures()`` maps each callable that ``semint/__init__.py`` re-exports to
the kind of each of its parameters, as ``semint.errors`` parses them.  A kind
here is a strategy for values of that kind and a list of values outside it,
drawn from NaN, +-inf, a negative number, 2.5, True, "a", None and a
wrong-shape array.  The property: a call returns or raises a ``SemintError``,
never anything else and never a warning, and a call with one out-of-kind
argument never returns.  Result records (``CubicModel``, ``RootPrediction``,
...) take their fields as given, so their entries only say that each field
exists and that a record builds from the fields of one the library made.

``test_every_public_callable_has_a_signature`` keeps the table complete; the
second property mutates the CLI golden configs and runs ``cli.main``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semint
from semint.errors import ParameterError, SemintError

from conftest import pendulum_state
from test_cli import BOUNDS_BLOCK, GOLDEN_MAPS, GOLDEN_RUN, GOLDEN_SCAN, run_cli, write_config
from test_exports import _reexports

NAN, INF = math.nan, math.inf
ARRAY = np.zeros((2, 3))  # the wrong shape for every argument of the table
OUTSIDE = (NAN, INF, -INF, -1.0, 2.5, True, "a", None, ARRAY)

SETTINGS = settings(
    derandomize=True, database=None, deadline=None, max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@dataclasses.dataclass(frozen=True)
class Kind:
    inside: st.SearchStrategy
    outside: tuple = OUTSIDE


def _but(*kept):
    """OUTSIDE less the values that lie inside a kind."""
    return tuple(v for v in OUTSIDE if not any(v is k for k in kept))


REAL = Kind(st.floats(-2.0, 2.0), _but(-1.0, 2.5))
POSITIVE = Kind(st.floats(1e-12, 2.0), _but(2.5) + (0.0,))
NONNEGATIVE = Kind(st.floats(0.0, 2.0), _but(2.5))
UNIT = Kind(st.floats(0.05, 0.95))
FLAG = Kind(st.booleans(), _but(True))
TEXT = Kind(st.text(max_size=4), _but("a"))
VECTOR = Kind(st.floats(-1.5, 1.5) | st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=1), _but(-1.0, 2.5))
CALLABLE = Kind(st.just(np.cos))


def whole(low, high):
    return Kind(st.integers(low, high), OUTSIDE + (low - 1,))


def names(*choices):
    return Kind(st.sampled_from(choices))


def optional(kind):
    return Kind(st.none() | kind.inside, tuple(v for v in kind.outside if v is not None))


def one(*objects):
    """An instance kind: the world's objects inside, every OUTSIDE value outside."""
    return Kind(st.sampled_from(objects))


def record(instance):
    """A result record: each field as the library made it, nothing outside."""
    return {f.name: Kind(st.just(getattr(instance, f.name)), ()) for f in dataclasses.fields(instance)}


@functools.cache
def world():
    """One pendulum set-up every in-kind value is drawn from."""
    model = semint.pendulum()
    origin = pendulum_state(0.0, 0.0)
    bounds = semint.estimate_bounds(model, origin, 2.5, 5).scaled(1.1)
    constants = semint.derive_constants(bounds)
    opts = semint.StepOptions(bounds, constants)
    wp0 = semint.choose_conjugate_momentum(model, 1.0, 0.0, 0.5, 0.1)
    z = pendulum_state(1.0, 0.5, wp0)
    fields = semint.sample_fields(model, z)
    cubic = semint.cubic_model(model, z, constants)
    region = semint.classify_region(cubic)
    prediction = semint.predict_roots(region, cubic, constants)
    roots = semint.solve_roots(model, z, prediction, extend_to=constants.lambda_delta)
    traj = semint.propagate(model, z, 3, opts)
    classical = semint.ClassicalModel(1, value=lambda x: 0.5 * x[2] ** 2 - np.cos(x[0]),
                                      gradient=lambda x: np.array([np.sin(x[0]), 0.0, x[2]]),
                                      hessian=lambda x: np.diag([np.cos(x[0]), 0.0, 1.0]))
    return dict(
        model=model, models=(model, semint.oscillator(1.3)), z=z, origin=origin, bounds=bounds,
        constants=constants, opts=opts, fields=fields, cubic=cubic, region=region,
        prediction=prediction, roots=roots, traj=traj, classical=classical,
        report=semint.kantorovich_report(model, 0.1, z, bounds),
        ghosts=semint.ghost_check([roots], [cubic], bounds),
        conservation=semint.conservation_report(model, traj),
    )


@functools.cache
def signatures() -> dict:
    w = world()
    model = one(*w["models"])
    state = Kind(st.sampled_from([w["z"], w["z"].coords, pendulum_state(0.3, -0.8, 0.2)]))
    grad = optional(one(w["fields"].grad))
    lam = Kind(st.floats(-0.3, 0.3), REAL.outside)
    return {
        "DerivedConstants": record(w["constants"]),
        "RegionBounds": {
            **{key: NONNEGATIVE for key in ("M1", "M2", "gamma_H", "N1", "N2")},
            "center": one(w["origin"]), "radius": POSITIVE, "sample_count": whole(0, 100),
            "mode": TEXT,
            "active_axes": Kind(st.sampled_from([(), (0,), (0, 2)]), OUTSIDE + ((0, 7), (0, True))),
            "safety": POSITIVE,
        },
        "derive_constants": {"bounds": one(w["bounds"]), "delta": UNIT},
        "estimate_bounds": {"model": model, "center": one(w["origin"]),
                            "radius": Kind(st.floats(0.1, 3.0), POSITIVE.outside),
                            "samples_per_axis": whole(3, 4)},
        "ConstraintCurve": {"model": model, "z_k": state, "tol": POSITIVE, "grad": grad},
        "CubicModel": record(w["cubic"]),
        "cubic_model": {"model": model, "z_k": state, "constants": one(w["constants"])},
        "g_derivative": {"model": model, "lam": lam, "z_k": state, "tol": POSITIVE},
        "g_eval": {"model": model, "lam": lam, "z_k": state, "tol": POSITIVE},
        "KantorovichReport": record(w["report"]),
        "kantorovich_report": {"model": model, "lam": lam, "z": state, "bounds": one(w["bounds"]),
                               "delta": UNIT},
        "midpoint_sensitivity": {"model": model, "lam": lam, "z_bar": state, "grad": grad},
        "solve_midpoint_coords": {"model": model, "lam": lam, "z": state, "tol": POSITIVE,
                                  "max_iter": whole(0, 60)},
        "ClassicalModel": {"n": whole(1, 2), "value": CALLABLE, "gradient": CALLABLE, "hessian": CALLABLE,
                           "time_independent": FLAG, "name": TEXT},
        "ExtendedState": {"coords": Kind(st.sampled_from([np.zeros(4), [0.1, 0.0, 0.2, 0.3], np.ones(6)])),
                          "n": whole(1, 2)},
        "FieldSample": record(w["fields"]),
        "HamiltonianModel": {"n": whole(1, 2), "value": CALLABLE, "gradient": CALLABLE, "hessian": CALLABLE,
                             "psi_gradient": optional(CALLABLE), "time_independent": FLAG,
                             "wp_affine": FLAG, "hessian_symmetric": FLAG, "vectorized": FLAG,
                             "name": TEXT},
        "apply_J": {"v": Kind(st.sampled_from([np.ones(4), [1.0, 2.0], np.ones((3, 6))]))},
        "autonomize": {"classical": one(w["classical"])},
        "sample_fields": {"model": model, "z": Kind(st.sampled_from([w["z"], w["z"].coords, np.ones((3, 4))]))},
        "free_time": {"n": whole(1, 2)},
        "oscillator": {"omega": POSITIVE},
        "pendulum": {},
        "GhostReport": record(w["ghosts"]),
        "MultiplierSet": record(w["roots"]),
        "Region": record(w["region"]),
        "RootPrediction": record(w["prediction"]),
        "capital_lambda": {"region": one(w["region"]), "cubic": one(w["cubic"]),
                           "constants": one(w["constants"]), "shrink": UNIT},
        "classify_region": {"cubic": one(w["cubic"])},
        "ghost_check": {"multiplier_sets": one([w["roots"]]), "cubics": one([w["cubic"]]),
                        "bounds": one(w["bounds"]), "ratio_tol": NONNEGATIVE},
        "predict_roots": {"region": one(w["region"]), "cubic": one(w["cubic"]),
                          "constants": one(w["constants"]), "shrink": UNIT, "tol_g": POSITIVE},
        "solve_roots": {"model": model, "z_k": state, "prediction": one(w["prediction"]), "tol_g": POSITIVE,
                        "tol_lambda": POSITIVE, "solver_tol": POSITIVE, "extend_to": optional(POSITIVE),
                        "extend_sides": names("both", "pos", "neg"), "grad": grad,
                        "sides": names("both", "pos", "neg")},
        "ConservationReport": record(w["conservation"]),
        "DTHTrajectory": record(w["traj"]),
        "StepOptions": {"bounds": one(w["bounds"]), "constants": one(w["constants"]), "tol_g": POSITIVE,
                        "tol_lambda": POSITIVE, "solver_tol": POSITIVE,
                        "policy": names("default", "follow-ghost"), "search_beyond_window": FLAG},
        "choose_conjugate_momentum": {"model": model, "q0": VECTOR, "t0": REAL, "p0": VECTOR,
                                      "lambda_target": Kind(st.floats(0.01, 0.3), POSITIVE.outside)},
        "classify_vertex": {"model": model, "z0": state, "constants": one(w["constants"])},
        "conservation_report": {"model": model, "trajectory": one(w["traj"]), "defect_stride": whole(1, 3)},
        "interpolate_at_time": {"trajectory": one(w["traj"]), "t": REAL},
        "propagate": {"model": model, "z0": one(w["z"]), "n_steps": whole(1, 3), "opts": one(w["opts"]),
                      "t_stop": optional(REAL)},
        "step": {"model": model, "z_k": one(w["z"]), "direction": names("forward", "backward"),
                 "opts": one(w["opts"]), "hint": optional(REAL)},
    }


def _public_callables():
    return sorted(bound for _, _, bound in _reexports() if callable(getattr(semint, bound)))


def test_every_public_callable_has_a_signature():
    """A new public name cannot slip past the contract: the table covers every
    re-exported callable, and each entry names exactly its parameters."""
    table = signatures()
    assert [name for name in _public_callables() if name not in table] == []
    for name, kinds in table.items():
        assert list(kinds) == list(inspect.signature(getattr(semint, name)).parameters), name


@pytest.mark.parametrize("name", _public_callables())
@SETTINGS
@given(data=st.data())
def test_contract(name, data):
    kinds = signatures()[name]
    bad = data.draw(st.sampled_from([None, *(p for p, k in kinds.items() if k.outside)]), label="out of kind")
    args = {p: data.draw(st.sampled_from(k.outside) if p == bad else k.inside, label=p)
            for p, k in kinds.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            getattr(semint, name)(**args)
        except SemintError:
            return
    assert bad is None, f"{name} returned with {bad}={args[bad]!r}"


GOLDENS = {"run": GOLDEN_RUN["payload"], "scan": GOLDEN_SCAN["payload"],
           **{f"map:{key}": payload for key, (payload, *_) in GOLDEN_MAPS.items()}}


def _leaves(node, path=()):
    """(path, value) of every key and list entry of a config."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _leaves(value, path + (key,))


@SETTINGS
@given(data=st.data())
def test_mutated_golden_configs(tmp_path_factory, data):
    """Drop a key, change a type, or set a number to 0, -1, 1e308 or a string:
    the exit code lies in {0, 1, 2, 3}, exit 1 prints one ``error:`` line, exit 2
    its one "no trajectory" answer, and nothing prints a traceback."""
    golden = data.draw(st.sampled_from(sorted(GOLDENS)), label="config")
    payload = json.loads(json.dumps({"bounds": BOUNDS_BLOCK, **GOLDENS[golden]}))  # a copy, 9 samples per axis
    path, value = data.draw(st.sampled_from(list(_leaves(payload))), label="where")
    *parents, key = path
    block = payload
    for name in parents:
        block = block[name]
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    edit = data.draw(st.sampled_from(["drop", "type"] + (["0", "-1", "1e308", "str"] if numeric else [])))
    if edit == "drop":
        del block[key]
    else:
        block[key] = {"type": [value] if not isinstance(value, list) else 1.0, "0": 0, "-1": -1,
                      "1e308": 1e308, "str": "x"}[edit]
    tmp = tmp_path_factory.mktemp("mutated")
    proc = run_cli(golden.split(":")[0], "--config", write_config(tmp, "cfg.json", payload), "--out", str(tmp))
    assert proc.returncode in (0, 1, 2, 3)
    assert "Traceback" not in proc.stdout + proc.stderr
    if proc.returncode == 1:
        assert [line for line in proc.stderr.splitlines() if line.startswith("error:")] == [proc.stderr.strip()]
    elif proc.returncode == 2:  # an answer, not an error: no trajectory exists at the start point
        assert proc.stderr == "" and proc.stdout.startswith("no trajectory from z0: ")


# the silent wrong answers and raw errors of the entry points, one call each
HOLES = {
    "solve_roots-tol_g-negative": lambda w: semint.solve_roots(
        w["model"], w["z"], w["prediction"], tol_g=-1.0, extend_to=w["constants"].lambda_delta),
    "solve_roots-extend_to-nan": lambda w: semint.solve_roots(
        w["model"], w["z"], w["prediction"], extend_to=NAN),
    "solve_roots-extend_to-negative": lambda w: semint.solve_roots(
        w["model"], w["z"], w["prediction"], extend_to=-1.0),
    "solve_roots-tol_lambda-zero": lambda w: semint.solve_roots(
        w["model"], w["z"], w["prediction"], tol_lambda=0.0),
    "predict_roots-tol_g-nan": lambda w: semint.predict_roots(
        w["region"], w["cubic"], w["constants"], tol_g=NAN),
    "StepOptions-search_beyond_window-str": lambda w: semint.StepOptions(
        w["bounds"], w["constants"], search_beyond_window="no"),
    "propagate-t_stop-nan": lambda w: semint.propagate(w["model"], w["z"], 3, w["opts"], t_stop=NAN),
    "conservation_report-defect_stride-0": lambda w: semint.conservation_report(
        w["model"], w["traj"], defect_stride=0),
    "conservation_report-defect_stride-negative": lambda w: semint.conservation_report(
        w["model"], w["traj"], defect_stride=-5),
    "propagate-n_steps-fractional": lambda w: semint.propagate(w["model"], w["z"], 2.5, w["opts"]),
    "propagate-n_steps-bool": lambda w: semint.propagate(w["model"], w["z"], True, w["opts"]),
    "step-hint-str": lambda w: semint.step(w["model"], w["z"], "forward", w["opts"], hint="a"),
    "step-hint-nan": lambda w: semint.step(w["model"], w["z"], "forward", w["opts"], hint=NAN),
    "step-opts-dict": lambda w: semint.step(w["model"], w["z"], "forward", {}),
    "StepOptions-bounds-constants-none": lambda w: semint.StepOptions(bounds=None, constants=None),
    "StepOptions-tol_g-str": lambda w: semint.StepOptions(w["bounds"], w["constants"], tol_g="1e-12"),
    "StepOptions-tol_g-bool": lambda w: semint.StepOptions(w["bounds"], w["constants"], tol_g=True),
    "estimate_bounds-radius-inf": lambda w: semint.estimate_bounds(w["model"], w["origin"], INF, 3),
    "estimate_bounds-samples-fractional": lambda w: semint.estimate_bounds(w["model"], w["origin"], 2.5, 3.5),
    "ExtendedState-n-fractional": lambda w: semint.ExtendedState(np.zeros(5), 1.5),
    "ExtendedState-n-bool": lambda w: semint.ExtendedState(np.zeros(4), True),
    "choose_conjugate_momentum-lambda_target-bool": lambda w: semint.choose_conjugate_momentum(
        w["model"], 1.0, 0.0, 0.5, True),
    "interpolate_at_time-t-str": lambda w: semint.interpolate_at_time(w["traj"], "a"),
}


@pytest.mark.parametrize("hole", sorted(HOLES))
def test_hole_is_a_parameter_error(hole):
    """Each was a silent wrong answer, a raw TypeError / AttributeError or a numpy warning."""
    w = world()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            HOLES[hole](w)
