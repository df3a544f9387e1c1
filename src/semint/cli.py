"""Command-line front end: run | scan | map | verify.

All commands read a JSON config (``--config``) whose fields can be overridden
on the command line, and write CSV/JSON artifacts for external plotting.
Exit codes: 0 success, 1 bad configuration or command line, 2 no trajectory
exists at the requested start point (the ruling existence case, or the
evaluation or solver error that ended the run, is printed), 3 verification
failure.

One boundary gives exit 1: ``main`` prints any ``SemintError`` as one
``error:`` line.  A refused config value is a ``ParameterError`` (every value
goes through ``errors._from_json``), prefixed with its name where a library
call refused it; a key that the command does not read, at the top level or
in a config object, is refused too.  A step the DTH equations or the solver
refuse is a ``terminated`` event of ``propagate`` instead: exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import models
from .bounds import bounds_from_json, bounds_to_json, derive_constants, estimate_bounds
from .constraint import ConstraintCurve, CubicModel, cubic_model
from .errors import (
    ParameterError, SemintError, SolveError, _POSITIVE, _UNIT, _from_json, _instance, _one_of,
    _real, _vector, _whole,
)
from .extphase import ExtendedState, _eval_stack, eval_value, sample_fields, state_header
from .multiplier import classify_region, predict_roots
from .trajectory import StepOptions, choose_conjugate_momentum, propagate
from .trajectory import classify_vertex  # noqa: F401  (kept bound: the benchmark tracer rebinds it here)
from . import verify as verify_mod

DEFAULT_TOLERANCES = {key: getattr(StepOptions, key) for key in ("tol_g", "tol_lambda", "solver_tol")}
DEFAULT_BOUNDS = {"radius": 2.5, "samples_per_axis": 17, "safety": 1.1, "delta": 0.5}
CONFIG_KEYS = {  # the top-level keys each command reads
    "run": ("model", "initial", "steps", "policy", "tolerances", "bounds", "out"),
    "scan": ("model", "state", "lambda_range", "count", "tolerances", "bounds", "out"),
    "map": ("model", "grid", "t", "wp_rule", "jobs", "bounds", "out"),
    "verify": ("seed",),
}
BLOCK_KEYS = {  # the keys of each config object but the model's, which the model checks
    "tolerances": tuple(DEFAULT_TOLERANCES),
    "bounds": (*DEFAULT_BOUNDS, "center", "path", "save"),
    "initial": ("state", "q0", "p0", "t0", "lambda_target"),
    "grid": ("q_min", "q_max", "p_min", "p_max", "nq", "np"),
    "wp_rule": ("kind", "value"),
}


def _load_config(args):
    """The command's JSON config object ({} without ``--config``)."""
    path = args.config
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParameterError(f"config {path} must be a JSON object, got {type(cfg).__name__}")
    return _known_keys(cfg, "config", CONFIG_KEYS[args.command])


def _known_keys(block, name, keys):
    """``block`` if every key is one of ``keys``: a misspelt key is refused, not ignored."""
    unknown = [key for key in block if key not in keys]
    if unknown:
        raise ParameterError(f"unknown {name} key {unknown[0]!r}; expected {', '.join(keys)}")
    return block


def _config_object(cfg, key, default=None):
    """The JSON object under ``key``: ``default`` (or {}) when absent."""
    block = cfg.get(key, {} if default is None else default)
    if not isinstance(block, dict):
        raise ParameterError(f"{key} must be an object, got {type(block).__name__}")
    return _known_keys(block, key, BLOCK_KEYS[key]) if key in BLOCK_KEYS else block


def _build_model(cfg):
    spec = dict(_config_object(cfg, "model", {"name": "pendulum"}))
    name = spec.pop("name", "pendulum")
    try:
        return models.by_name(name, **spec)
    except (ParameterError, TypeError) as exc:
        raise ParameterError(f"bad model config: {exc}") from exc


def _tolerances(cfg, args, used=tuple(DEFAULT_TOLERANCES)):
    """The solver tolerances: defaults, then the config's, then the flags' (``run`` only).

    A config key outside ``used`` is an error, as is an unknown one.
    """
    block = _config_object(cfg, "tolerances")
    unused = [key for key in block if key not in used]
    if unused:
        raise ParameterError(
            f"{args.command} does not use tolerances key {unused[0]!r}; expected {', '.join(used)}"
        )
    tols = {**DEFAULT_TOLERANCES, **block}
    given = {key: (tols[key], f"tolerances.{key}") for key in DEFAULT_TOLERANCES}
    for key, flag in (("tol_g", "--tol-g"), ("tol_lambda", "--tol-lambda")):
        if getattr(args, key, None) is not None:
            given[key] = (getattr(args, key), flag)
    return {key: _from_json(value, name, _real, _POSITIVE) for key, (value, name) in given.items()}


def _config_state(value, model, what):
    """An ExtendedState of the model's dimension from a config coordinate list."""
    coords = _from_json(value, what, _vector)
    try:
        return ExtendedState(coords, model.n)
    except SemintError as exc:
        raise ParameterError(f"bad {what}: {exc}") from exc


def _resolve_bounds(cfg, model, fallback_center=None):
    """Build (safety-scaled bounds, derived constants)."""
    block = {**DEFAULT_BOUNDS, **_config_object(cfg, "bounds")}
    delta = _from_json(block["delta"], "bounds.delta", _real, _UNIT)
    safety = _from_json(block["safety"], "bounds.safety", _real, _POSITIVE)
    if "path" in block:
        try:
            raw = bounds_from_json(Path(block["path"]).read_text())
        except (OSError, ValueError, KeyError, TypeError, SemintError) as exc:
            raise ParameterError(
                f"cannot read bounds {block['path']}: {type(exc).__name__}: {exc}"
            ) from exc
        if raw.center.n != model.n:
            msg = f"bounds {block['path']} were saved for n = {raw.center.n}; the model has n = {model.n}"
            raise ParameterError(msg)
    else:
        center = block.get("center", None)
        if center is None:
            if fallback_center is None:
                raise ParameterError("bounds config needs a center (or a saved path)")
            center_state = fallback_center
        else:
            center_state = _config_state(center, model, "bounds center")
        radius = _from_json(block["radius"], "bounds.radius", _real, _POSITIVE)
        samples = _from_json(block["samples_per_axis"], "bounds.samples_per_axis", _whole, 3)
        try:
            raw = estimate_bounds(model, center_state, radius, samples)
        except SemintError as exc:
            raise ParameterError(f"bad bounds: {exc}") from exc
    if "save" in block:
        _instance(block["save"], "bounds.save", str)
        try:
            Path(block["save"]).write_text(bounds_to_json(raw))
        except OSError as exc:
            raise ParameterError(
                f"cannot save bounds {block['save']}: {type(exc).__name__}: {exc}"
            ) from exc
    try:
        scaled = raw.scaled(safety)
        return scaled, derive_constants(scaled, delta)
    except SemintError as exc:
        raise ParameterError(f"bad bounds: {exc}") from exc


def _resolve_initial_state(cfg, model):
    init = _config_object(cfg, "initial")
    has_state = "state" in init
    has_target = "lambda_target" in init
    if has_state == has_target:
        raise ParameterError(
            "initial config must give exactly one of an explicit state "
            "(with wp) or q0/p0/t0 plus lambda_target"
        )
    if has_state:
        return _config_state(init["state"], model, "initial state")
    q0 = _from_json(init.get("q0", 0.0), "initial.q0", _vector)
    p0 = _from_json(init.get("p0", 0.0), "initial.p0", _vector)
    for name, part in (("q0", q0), ("p0", p0)):
        if len(part) != model.n:
            raise ParameterError(f"initial.{name} needs {model.n} component(s), got {len(part)}")
    t0 = _from_json(init.get("t0", 0.0), "initial.t0", _real)
    lambda_target = _from_json(init["lambda_target"], "initial.lambda_target", _real, _POSITIVE)
    try:
        wp0 = choose_conjugate_momentum(model, q0, t0, p0, lambda_target)
    except SemintError as exc:
        raise ParameterError(f"conjugate-momentum completion failed: {exc}") from exc
    return ExtendedState.from_parts(q0, t0, p0, wp0)


def _out_dir(cfg, args):
    path = Path(_instance(args.out or cfg.get("out", "."), "out", str))
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_run(args) -> int:
    cfg = _load_config(args)
    model = _build_model(cfg)
    tols = _tolerances(cfg, args)
    steps = _from_json(cfg.get("steps", 100) if args.steps is None else args.steps, "steps", _whole, 1)
    z0 = _resolve_initial_state(cfg, model)
    scaled, constants = _resolve_bounds(cfg, model, fallback_center=z0)
    opts = StepOptions(scaled, constants, policy=cfg.get("policy", "default"), **tols)
    out = _out_dir(cfg, args)

    traj = propagate(model, z0, steps, opts)
    max_resid = _write_trajectory(model, traj, out)

    taken = len(traj.multipliers)
    if taken == 0:
        fixed = [e for e in traj.events if e.kind == "fixed-point"]
        if fixed:
            # a zero-step trajectory is still a trajectory; report and succeed
            print(f"fixed point at z0 (lambda = 0): {fixed[0].detail}")
            return 0
        verdicts = [e.detail for e in traj.events if e.kind == "terminated"]
        print(f"no trajectory from z0: {verdicts[0] if verdicts else 'unknown'}")
        return 2

    print(f"steps taken: {taken}")
    print(f"max |H(z_bar)|: {max_resid:.3e}")
    print(f"events: {len(traj.events)}")
    for e in traj.events:
        print(f"  [{e.index}] {e.kind}: {e.detail}")
    return 0


def _write_trajectory(model, traj, out: Path) -> float:
    n = traj.vertices[0].n
    max_resid = 0.0
    with open(out / "trajectory.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "lambda"] + state_header(n) + ["abs_H_mid"])
        for k, v in enumerate(traj.vertices):
            if k < len(traj.multipliers):
                resid = abs(eval_value(model, traj.midpoints[k].coords))
                max_resid = max(max_resid, resid)
                row = [k, repr(float(traj.multipliers[k]))] + [repr(float(x)) for x in v.coords] + [repr(resid)]
            else:
                row = [k, ""] + [repr(float(x)) for x in v.coords] + [""]
            writer.writerow(row)
    events = [
        {"index": e.index, "kind": e.kind, "detail": e.detail} for e in traj.events
    ]
    doc = {
        "vertices": [[float(x) for x in v.coords] for v in traj.vertices],
        "midpoints": [[float(x) for x in m.coords] for m in traj.midpoints],
        "multipliers": [float(x) for x in traj.multipliers],
        "events": events,
    }
    (out / "events.json").write_text(json.dumps(doc, indent=2))
    return max_resid


def cmd_scan(args) -> int:
    cfg = _load_config(args)
    model = _build_model(cfg)
    tols = _tolerances(cfg, args, used=("solver_tol",))  # scan finds no roots
    if "state" not in cfg:
        raise ParameterError("scan config needs a 'state'")
    z_k = _config_state(cfg["state"], model, "scan state")
    lam_range = cfg.get("lambda_range", [-0.15, 0.15])
    if not isinstance(lam_range, list) or len(lam_range) != 2:
        raise ParameterError(f"lambda_range must be a pair [lo, hi], got {lam_range!r}")
    lo, hi = (_from_json(x, "lambda_range", _real) for x in lam_range)
    end = max(abs(lo), abs(hi))
    try:  # the cubic model's quartic bound takes lambda**4 of every row
        end**4
    except OverflowError:
        msg = f"lambda_range end {end:g} is too large: its fourth power overflows"
        raise ParameterError(msg) from None
    count = _from_json(cfg.get("count", 201), "count", _whole, 2)
    if not hi > lo:
        raise ParameterError("scan needs lambda_range with hi > lo")
    scaled, constants = _resolve_bounds(cfg, model, fallback_center=z_k)
    out = _out_dir(cfg, args)

    cubic = cubic_model(model, z_k, constants)
    curve = ConstraintCurve(model, z_k, tol=tols["solver_tol"])
    rows = []
    for lam in np.linspace(lo, hi, count):
        lam = float(lam)
        model_val = float(cubic(lam))
        bound = float(cubic.quartic_bound(lam))
        try:
            g, dg = curve.g_and_derivative(lam)
            rows.append([repr(lam), repr(float(g)), repr(model_val), repr(bound), repr(float(dg))])
        except SolveError:
            rows.append([repr(lam), "", repr(model_val), repr(bound), ""])
    with open(out / "scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "g", "model", "bound", "dg_dlambda"])
        writer.writerows(rows)
    print(f"scan written: {out / 'scan.csv'} ({count} rows)")
    return 0


def _map_cell(model, constants, qs, p, t, wp):
    """One map row: CSV cells for every q at fixed p and wp (None: where H = 0).

    The row's states go through one stacked ``sample_fields`` call; each cell
    then only builds its cubic model, its region and its case-table vertex kind.
    """
    zs = np.zeros((len(qs), 4))
    zs[:, 0], zs[:, 1], zs[:, 2] = qs, t, p
    if wp is None:
        zs[:, 3] = -_eval_stack(model, zs, "value")[0]  # H = wp + H_c vanishes there
    else:
        zs[:, 3] = wp
    fields = sample_fields(model, zs)
    p_text = repr(float(p))
    out = []
    for q, H, psi, psi_prime in zip(
        zs[:, 0].tolist(), fields.H.tolist(), fields.psi.tolist(), fields.psi_prime.tolist()
    ):
        cubic = CubicModel(
            H_k=H, psi_k=psi, psi_prime_k=psi_prime, K=constants.K, lambda_delta=constants.lambda_delta
        )
        region = classify_region(cubic)
        kind = predict_roots(region, cubic, constants).vertex_kind
        out.append([repr(q), p_text, repr(psi), repr(psi_prime), region.tag, kind])
    return out


def cmd_map(args) -> int:
    cfg = _load_config(args)
    model = _build_model(cfg)
    grid = _config_object(cfg, "grid")
    for key in BLOCK_KEYS["grid"]:
        if key not in grid:
            raise ParameterError(f"map grid config needs '{key}'")
    if model.n != 1:
        raise ParameterError("map sweeps a (q, p) plane; model must have n = 1")
    q_min, q_max, p_min, p_max = (
        _from_json(grid[key], f"grid.{key}", _real) for key in ("q_min", "q_max", "p_min", "p_max")
    )
    nq, npts = (_from_json(grid[key], f"grid.{key}", _whole, 2) for key in ("nq", "np"))
    if not q_max > q_min or not p_max > p_min:
        raise ParameterError("map grid must be increasing with at least 2 points per axis")
    t = _from_json(cfg.get("t", 0.0), "t", _real)
    wp_rule = _config_object(cfg, "wp_rule", {"kind": "h-zero"})
    wp = None  # h-zero: each cell's wp puts it on H = 0
    if _one_of(wp_rule.get("kind"), "wp_rule kind", ("h-zero", "fixed")) == "fixed":
        wp = _from_json(wp_rule.get("value", 0.0), "wp_rule.value", _real)
    # accepted so existing configs still validate; rows always run serially
    _from_json(cfg.get("jobs", 1), "jobs", _whole, 1)
    center = ExtendedState.from_parts([0.5 * (q_min + q_max)], t, [0.5 * (p_min + p_max)], 0.0)
    radius = max(0.5 * (q_max - q_min), 0.5 * (p_max - p_min)) + 0.5  # unless bounds gives one
    block = {"radius": radius, **_config_object(cfg, "bounds")}
    _, constants = _resolve_bounds({"bounds": block}, model, fallback_center=center)
    out = _out_dir(cfg, args)

    qs = np.linspace(q_min, q_max, nq)
    ps = np.linspace(p_min, p_max, npts)
    chunks = [_map_cell(model, constants, qs, float(p), t, wp) for p in ps]

    with open(out / "map.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "p", "psi", "psi_prime", "region", "vertex_class"])
        for chunk in chunks:
            writer.writerows(chunk)
    print(f"map written: {out / 'map.csv'} ({nq * npts} cells)")
    return 0


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    seed = _from_json(cfg.get("seed", 0) if args.seed is None else args.seed, "seed", _whole, 0)
    results = verify_mod.run_all(seed=seed, k_scale=args.inject_k_scale)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 3


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, like a bad config (2 means no trajectory)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="semint",
        description="Symplectic-energy-momentum integration with "
        "existence/uniqueness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="propagate a trajectory, write CSV + event log")
    p_scan = sub.add_parser("scan", help="tabulate g(lambda) against its cubic model")
    p_map = sub.add_parser("map", help="sweep a (q, p) grid; emit region/vertex classes")
    p_verify = sub.add_parser("verify", help="run the invariant check battery")
    # each command takes only the flags it reads
    for p, func in ((p_run, cmd_run), (p_scan, cmd_scan), (p_map, cmd_map), (p_verify, cmd_verify)):
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON config file")
    for p in (p_run, p_scan, p_map):
        p.add_argument("--out", help="output directory")
    # scan finds no roots, so only run reads the root tolerances
    p_run.add_argument("--tol-g", type=float, dest="tol_g")
    p_run.add_argument("--tol-lambda", type=float, dest="tol_lambda")
    p_run.add_argument("--steps", type=int)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument(
        "--inject-k-scale",
        type=float,
        default=1.0,
        help="multiply K by this factor before the quartic-bound check (fault injection)",
    )

    args = parser.parse_args(argv)
    # non-finite model values surface as EvaluationError; numpy's overflow
    # warnings would only add lines in front of the one-line error
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return args.func(args)
        except SemintError as exc:  # a refused config value, or the library refused its input
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:  # an artifact path that cannot be written
            print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
