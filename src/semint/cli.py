"""Command-line front end: run | scan | map | verify.

All commands read a JSON config (``--config``) whose fields can be overridden
on the command line, and write CSV/JSON artifacts for external plotting.
Exit codes: 0 success, 1 bad configuration, 2 no trajectory exists at the
requested start point (the ruling existence case is printed), 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import models
from .bounds import (
    bounds_from_json,
    bounds_to_json,
    derive_constants,
    estimate_bounds,
)
from .constraint import ConstraintCurve, CubicModel, cubic_model
from .errors import (
    EvaluationError,
    LinearSolveError,
    NonconvergenceError,
    ParameterError,
    UnsupportedRegionError,
)
from .extphase import ExtendedState, _eval_stack, sample_fields, state_header
from .multiplier import classify_region
from .trajectory import (
    StepOptions,
    case_table_vertex,
    choose_conjugate_momentum,
    classify_vertex,  # noqa: F401  (kept bound: the benchmark tracer rebinds it here)
    propagate,
)
from . import verify as verify_mod

DEFAULT_TOLERANCES = {"tol_g": 1e-12, "tol_lambda": 1e-9, "solver_tol": 1e-13}
DEFAULT_BOUNDS = {"radius": 2.5, "samples_per_axis": 17, "safety": 1.1, "delta": 0.5}


class ConfigError(Exception):
    pass


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _build_model(cfg):
    spec = dict(cfg.get("model", {"name": "pendulum"}))
    name = spec.pop("name", "pendulum")
    try:
        return models.by_name(name, **spec)
    except (ParameterError, TypeError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def _tolerances(cfg, args):
    tols = dict(DEFAULT_TOLERANCES)
    tols.update(cfg.get("tolerances", {}))
    if getattr(args, "tol_g", None) is not None:
        tols["tol_g"] = args.tol_g
    if getattr(args, "tol_lambda", None) is not None:
        tols["tol_lambda"] = args.tol_lambda
    return tols


def _config_number(value, name, integer=False):
    """A finite float (or, with ``integer``, a whole number) from a config value."""
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if integer:
        if number != int(number):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(number)
    return number


def _resolve_bounds(cfg, model, fallback_center=None):
    """Build (raw bounds, safety-scaled bounds, derived constants)."""
    block = dict(DEFAULT_BOUNDS)
    block.update(cfg.get("bounds", {}))
    delta = _config_number(block["delta"], "bounds.delta")
    safety = _config_number(block["safety"], "bounds.safety")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"bounds.delta must lie in (0, 1), got {delta}")
    if not safety > 0:
        raise ConfigError(f"bounds.safety must be positive, got {safety}")
    if "path" in block:
        try:
            raw = bounds_from_json(Path(block["path"]).read_text())
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(
                f"cannot read bounds {block['path']}: {type(exc).__name__}: {exc}"
            ) from exc
    else:
        center = block.get("center", None)
        if center is None:
            if fallback_center is None:
                raise ConfigError("bounds config needs a center (or a saved path)")
            center_state = fallback_center
        else:
            try:
                center_state = ExtendedState(np.asarray(center, dtype=float), model.n)
            except (ValueError, TypeError, EvaluationError) as exc:
                raise ConfigError(f"bad bounds center: {exc}") from exc
        radius = _config_number(block["radius"], "bounds.radius")
        samples = _config_number(block["samples_per_axis"], "bounds.samples_per_axis", integer=True)
        try:
            raw = estimate_bounds(model, center_state, radius, samples)
        except ParameterError as exc:
            raise ConfigError(f"bad bounds: {exc}") from exc
    if "save" in block:
        try:
            Path(block["save"]).write_text(bounds_to_json(raw))
        except OSError as exc:
            raise ConfigError(
                f"cannot save bounds {block['save']}: {type(exc).__name__}: {exc}"
            ) from exc
    scaled = raw.scaled(safety)
    constants = derive_constants(scaled, delta)
    return raw, scaled, constants


def _resolve_initial_state(cfg, model):
    init = cfg.get("initial", {})
    has_state = "state" in init
    has_target = "lambda_target" in init
    if has_state == has_target:
        raise ConfigError(
            "initial config must give exactly one of an explicit state "
            "(with wp) or q0/p0/t0 plus lambda_target"
        )
    if has_state:
        try:
            return ExtendedState(np.asarray(init["state"], dtype=float), model.n)
        except (ValueError, TypeError, EvaluationError) as exc:
            raise ConfigError(f"bad initial state: {exc}") from exc
    try:
        wp0 = choose_conjugate_momentum(
            model,
            init.get("q0", 0.0),
            float(init.get("t0", 0.0)),
            init.get("p0", 0.0),
            float(init["lambda_target"]),
        )
    except (ParameterError, UnsupportedRegionError) as exc:
        raise ConfigError(f"conjugate-momentum completion failed: {exc}") from exc
    return ExtendedState.from_parts(
        init.get("q0", 0.0), float(init.get("t0", 0.0)), init.get("p0", 0.0), wp0
    )


def _out_dir(cfg, args):
    out = getattr(args, "out", None) or cfg.get("out", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
        model = _build_model(cfg)
        tols = _tolerances(cfg, args)
        steps = args.steps if args.steps is not None else int(cfg.get("steps", 100))
        if steps < 1:
            raise ConfigError(f"steps must be >= 1, got {steps}")
        z0 = _resolve_initial_state(cfg, model)
        _, scaled, constants = _resolve_bounds(cfg, model, fallback_center=z0)
        policy = cfg.get("policy", "default")
        if policy not in ("default", "follow-ghost"):
            raise ConfigError(f"unknown policy '{policy}'")
        out = _out_dir(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    opts = StepOptions(
        bounds=scaled,
        constants=constants,
        tol_g=tols["tol_g"],
        tol_lambda=tols["tol_lambda"],
        solver_tol=tols["solver_tol"],
        policy=policy,
    )
    traj = propagate(model, z0, steps, opts)

    taken = len(traj.multipliers)
    if taken == 0:
        _write_trajectory(model, traj, out, tols)
        fixed = [e for e in traj.events if e.kind == "fixed-point"]
        if fixed:
            # a zero-step trajectory is still a trajectory; report and succeed
            print(f"fixed point at z0 (lambda = 0): {fixed[0].detail}")
            return 0
        verdicts = [e.detail for e in traj.events if e.kind == "terminated"]
        print(f"no trajectory from z0: {verdicts[0] if verdicts else 'unknown'}")
        return 2

    max_resid = _write_trajectory(model, traj, out, tols)
    print(f"steps taken: {taken}")
    print(f"max |H(z_bar)|: {max_resid:.3e}")
    print(f"events: {len(traj.events)}")
    for e in traj.events:
        print(f"  [{e.index}] {e.kind}: {e.detail}")
    return 0


def _write_trajectory(model, traj, out: Path, tols) -> float:
    from .extphase import eval_value

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
    try:
        cfg = _load_config(args.config)
        model = _build_model(cfg)
        tols = _tolerances(cfg, args)
        if "state" not in cfg:
            raise ConfigError("scan config needs a 'state'")
        z_k = ExtendedState(np.asarray(cfg["state"], dtype=float), model.n)
        lo, hi = cfg.get("lambda_range", [-0.15, 0.15])
        count = int(cfg.get("count", 201))
        if count < 2 or not hi > lo:
            raise ConfigError("scan needs count >= 2 and lambda_range with hi > lo")
        _, scaled, constants = _resolve_bounds(cfg, model, fallback_center=z_k)
        out = _out_dir(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

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
        except (NonconvergenceError, LinearSolveError):
            rows.append([repr(lam), "", repr(model_val), repr(bound), ""])
    with open(out / "scan.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "g", "model", "bound", "dg_dlambda"])
        writer.writerows(rows)
    print(f"scan written: {out / 'scan.csv'} ({count} rows)")
    return 0


def _map_cell(task):
    """Worker for one map row: returns CSV cells for every q at fixed p.

    The row's states go through one stacked ``sample_fields`` call; each cell
    then only builds its cubic model, its region and its case-table class.
    """
    (model_spec, qs, p, t, wp_rule, bounds_json, delta, safety, shrink) = task
    spec = dict(model_spec)
    model = models.by_name(spec.pop("name"), **spec)
    raw = bounds_from_json(bounds_json)
    constants = derive_constants(raw.scaled(safety), delta)
    zs = np.zeros((len(qs), 4))
    zs[:, 0], zs[:, 1], zs[:, 2] = qs, t, p
    if wp_rule.get("kind", "h-zero") == "h-zero":
        zs[:, 3] = -_eval_stack(model, zs, "value")[0]  # H = wp + H_c vanishes there
    else:
        zs[:, 3] = float(wp_rule.get("value", 0.0))
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
        vclass = case_table_vertex(cubic, region, constants, shrink=shrink)
        out.append([repr(q), p_text, repr(psi), repr(psi_prime), region.tag, vclass.kind])
    return out


def cmd_map(args) -> int:
    try:
        cfg = _load_config(args.config)
        model = _build_model(cfg)
        grid = cfg.get("grid", {})
        for key in ("q_min", "q_max", "p_min", "p_max", "nq", "np"):
            if key not in grid:
                raise ConfigError(f"map grid config needs '{key}'")
        if model.n != 1:
            raise ConfigError("map sweeps a (q, p) plane; model must have n = 1")
        q_min, q_max, p_min, p_max = (
            _config_number(grid[key], f"grid.{key}") for key in ("q_min", "q_max", "p_min", "p_max")
        )
        nq, npts = (_config_number(grid[key], f"grid.{key}", integer=True) for key in ("nq", "np"))
        if nq < 2 or npts < 2 or not q_max > q_min or not p_max > p_min:
            raise ConfigError("map grid must be increasing with at least 2 points per axis")
        t = _config_number(cfg.get("t", 0.0), "t")
        wp_rule = cfg.get("wp_rule", {"kind": "h-zero"})
        if wp_rule.get("kind") not in ("h-zero", "fixed"):
            raise ConfigError("wp_rule kind must be 'h-zero' or 'fixed'")
        if wp_rule["kind"] == "fixed":
            _config_number(wp_rule.get("value", 0.0), "wp_rule.value")
        # accepted so existing configs still validate; rows always run serially
        _config_number(cfg.get("jobs", 1), "jobs", integer=True)
        center = ExtendedState.from_parts([0.5 * (q_min + q_max)], t, [0.5 * (p_min + p_max)], 0.0)
        bcfg = dict(DEFAULT_BOUNDS)
        bcfg.update(cfg.get("bounds", {}))
        if "radius" not in cfg.get("bounds", {}):
            bcfg["radius"] = max(0.5 * (q_max - q_min), 0.5 * (p_max - p_min)) + 0.5
        cfg = dict(cfg)
        cfg["bounds"] = bcfg
        raw, _, _ = _resolve_bounds(cfg, model, fallback_center=center)
        out = _out_dir(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    qs = np.linspace(q_min, q_max, nq)
    ps = np.linspace(p_min, p_max, npts)
    model_spec = dict(cfg.get("model", {"name": "pendulum"}))
    raw_json = bounds_to_json(raw)
    delta = float(bcfg.get("delta", 0.5))
    safety = float(bcfg.get("safety", 1.1))
    tasks = [
        (dict(model_spec), list(qs), float(p), t, dict(wp_rule), raw_json, delta, safety, 0.9)
        for p in ps
    ]
    chunks = [_map_cell(task) for task in tasks]

    with open(out / "map.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "p", "psi", "psi_prime", "region", "vertex_class"])
        for chunk in chunks:
            writer.writerows(chunk)
    print(f"map written: {out / 'map.csv'} ({nq * npts} cells)")
    return 0


def cmd_verify(args) -> int:
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    results = verify_mod.run_all(seed=seed, k_scale=args.inject_k_scale)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="semint",
        description="Symplectic-energy-momentum integration with "
        "existence/uniqueness certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--tol-g", type=float, dest="tol_g")
        p.add_argument("--tol-lambda", type=float, dest="tol_lambda")
        p.add_argument("--seed", type=int)

    p_run = sub.add_parser("run", help="propagate a trajectory, write CSV + event log")
    add_common(p_run)
    p_run.add_argument("--steps", type=int)
    p_run.set_defaults(func=cmd_run)

    p_scan = sub.add_parser("scan", help="tabulate g(lambda) against its cubic model")
    add_common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_map = sub.add_parser("map", help="sweep a (q, p) grid; emit region/vertex classes")
    add_common(p_map)
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="run the invariant check battery")
    add_common(p_verify)
    p_verify.add_argument(
        "--inject-k-scale",
        type=float,
        default=1.0,
        help="multiply K by this factor before the quartic-bound check (fault injection)",
    )
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
