"""Per-layer spans for the traced benchmark run, recorded from outside semint.

The tracer rebinds the names that callers look up: module globals such as
``semint.trajectory.solve_roots`` (what ``step`` calls), class attributes such
as ``ConstraintCurve.g`` (what ``solve_roots`` calls on a curve), and the
callables of the model the benchmark passes in.  Each rebound name becomes a
span owned by the layer (semint module) that defines the callee.  Spans are
aggregated in memory per name: calls, inclusive time, self time (inclusive
minus the time covered by child spans) and exceptions.  Nothing inside
``src/`` is edited; leaving the ``with`` block restores every name.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import semint.bounds
import semint.cli
import semint.constraint
import semint.decoupler
import semint.models
import semint.trajectory
from semint.constraint import ConstraintCurve
from semint.extphase import ExtendedState

LAYERS = ("models", "extphase", "decoupler", "constraint", "multiplier", "trajectory", "bounds", "cli")

MODEL_CALLABLES = ("value", "gradient", "hessian", "psi_gradient")
MODEL_SPANS = tuple(f"models.{attr}" for attr in MODEL_CALLABLES)

# Names to rebind, by the module or class whose namespace the *caller*
# reads, mapped to span names; a span's layer is its name's prefix.
REBIND = {
    ExtendedState: {"__post_init__": "extphase.ExtendedState"},
    semint.constraint: {
        "sample_fields": "extphase.sample_fields",
        "eval_value": "extphase.eval",
        "eval_gradient": "extphase.eval",
        "_apply_J_arr": "extphase.eval",
        "solve_midpoint_coords": "decoupler.solve_midpoint_coords",
        "midpoint_sensitivity": "decoupler.midpoint_sensitivity",
    },
    semint.decoupler: {
        "eval_gradient": "extphase.eval",
        "eval_hessian": "extphase.eval",
        "apply_J": "extphase.eval",
    },
    ConstraintCurve: {
        "__init__": "constraint.curve",
        "g": "constraint.g",
        "g_and_derivative": "constraint.g_and_derivative",
        "midpoint": "constraint.midpoint",
    },
    semint.trajectory: {
        "sample_fields": "extphase.sample_fields",
        "eval_gradient": "extphase.eval",
        "eval_value": "extphase.eval",
        "solve_midpoint_coords": "decoupler.solve_midpoint_coords",
        "cubic_model": "constraint.cubic_model",
        "solve_roots": "multiplier.solve_roots",
        "classify_region": "multiplier.classify_region",
        "predict_roots": "multiplier.predict_roots",
        "step": "trajectory.step",
        "propagate": "trajectory.propagate",
        "choose_conjugate_momentum": "trajectory.choose_conjugate_momentum",
    },
    semint.bounds: {
        "eval_gradient": "extphase.eval",
        "eval_hessian": "extphase.eval",
        "psi_gradient": "extphase.eval",
        "estimate_bounds": "bounds.estimate_bounds",
        "derive_constants": "bounds.derive_constants",
    },
    semint.models: {"by_name": "models.by_name"},
    semint.cli: {
        "sample_fields": "extphase.sample_fields",
        "cubic_model": "constraint.cubic_model",
        "classify_region": "multiplier.classify_region",
        "classify_vertex": "trajectory.classify_vertex",
        "estimate_bounds": "bounds.estimate_bounds",
        "derive_constants": "bounds.derive_constants",
        "bounds_from_json": "bounds.json",
        "bounds_to_json": "bounds.json",
        "main": "cli.main",
        "_map_cell": "cli._map_cell",
    },
}
PATCHES = [(owner, attr, name) for owner, names in REBIND.items() for attr, name in names.items()]

# spans whose children are counted per call: (span, counted span) -> total
NESTED = {
    "constraint.g": ("decoupler.solve_midpoint_coords",),
    "constraint.g_and_derivative": ("decoupler.solve_midpoint_coords",),
    "multiplier.solve_roots": ("constraint.g", "constraint.g_and_derivative"),
    "bounds.estimate_bounds": MODEL_SPANS,
    "trajectory.step": ("multiplier.solve_roots",),
}


class Tracer:
    """Aggregated spans for one traced unit of work.

    Use as a context manager: entering rebinds every name in ``PATCHES``,
    leaving restores them.  ``model()`` returns a copy of a model whose
    callables are spans of the ``models`` layer.
    """

    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nested = Counter()  # (span, counted span) -> calls under it
        self.covered = 0.0  # summed duration of top-level spans
        self.fast_steps = 0  # steps given a hint that never reached solve_roots
        self.hinted_steps = 0
        self.newton_iters = 0
        self.roots = 0
        self.unsearched = 0
        self.sample_points = 0
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def span(self, name, fn):
        """Wrap ``fn`` so every call records a span called ``name``."""
        stack, calls = self._stack, self.calls
        counted = NESTED.get(name, ())
        on_return = _ON_RETURN.get(name)
        tracer = self

        def traced(*args, **kwargs):
            before = [calls[c] for c in counted]
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                tracer.total[name] += dt
                tracer.self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                else:
                    tracer.covered += dt
                for c, b in zip(counted, before):
                    tracer.nested[name, c] += calls[c] - b
            if on_return is not None:
                on_return(tracer, args, kwargs, result, [calls[c] - b for c, b in zip(counted, before)])
            return result

        return traced

    def model(self, model):
        """The same model with its callables traced as ``models`` spans."""
        fields = {
            attr: self.span(f"models.{attr}", getattr(model, attr))
            for attr in MODEL_CALLABLES
            if getattr(model, attr) is not None
        }
        return dataclasses.replace(model, **fields)

    def __enter__(self):
        for owner, attr, name in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            fn = original
            if name == "models.by_name":  # models the CLI builds get traced callables too
                fn = lambda *a, _build=original, **k: self.model(_build(*a, **k))  # noqa: E731
            setattr(owner, attr, self.span(name, fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # -- derived metrics -----------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum((t for name, t in self.self_time.items() if name.startswith(layer + ".")), 0.0)

    def metrics(self) -> dict:
        c, st = self.calls, self.self_time
        model_evals = sum(c[m] for m in MODEL_SPANS)
        solves = c["decoupler.solve_midpoint_coords"]
        g_evals = c["constraint.g"] + c["constraint.g_and_derivative"]
        solves_in_g = (
            self.nested["constraint.g", "decoupler.solve_midpoint_coords"]
            + self.nested["constraint.g_and_derivative", "decoupler.solve_midpoint_coords"]
        )
        g_in_roots = (
            self.nested["multiplier.solve_roots", "constraint.g"]
            + self.nested["multiplier.solve_roots", "constraint.g_and_derivative"]
        )
        evals_in_bounds = sum(self.nested["bounds.estimate_bounds", m] for m in MODEL_SPANS)
        out = {
            "models.evals": (model_evals, "count"),
            "extphase.sample_fields.calls": (c["extphase.sample_fields"], "count"),
            "extphase.sample_fields.self_s": (st["extphase.sample_fields"], "s"),
            "extphase.states_built": (c["extphase.ExtendedState"], "count"),
            "decoupler.solves": (solves, "count"),
            "decoupler.newton_iters": (self.newton_iters, "count"),
            "decoupler.iters_per_solve": (_ratio(self.newton_iters, solves), "ratio"),
            "decoupler.sensitivity_solves": (c["decoupler.midpoint_sensitivity"], "count"),
            "decoupler.failed": (
                self.errors["decoupler.solve_midpoint_coords"]
                + self.errors["decoupler.midpoint_sensitivity"],
                "count",
            ),
            "constraint.g_evals": (g_evals, "count"),
            "constraint.solves_per_g_eval": (_ratio(solves_in_g, g_evals), "ratio"),
            "constraint.cubic_models": (c["constraint.cubic_model"], "count"),
            "multiplier.solve_roots.calls": (c["multiplier.solve_roots"], "count"),
            "multiplier.solve_roots.self_s": (st["multiplier.solve_roots"], "s"),
            "multiplier.g_evals_per_root": (_ratio(g_in_roots, self.roots), "ratio"),
            "multiplier.unsearched": (self.unsearched, "count"),
            "multiplier.predict.self_s": (
                st["multiplier.classify_region"] + st["multiplier.predict_roots"],
                "s",
            ),
            "trajectory.steps": (c["trajectory.step"], "count"),
            "trajectory.fast_path_ratio": (_ratio(self.fast_steps, self.hinted_steps), "ratio"),
            "trajectory.step.self_s": (st["trajectory.step"], "s"),
            "trajectory.propagate.self_s": (st["trajectory.propagate"], "s"),
            "trajectory.classify_vertex.self_s": (st["trajectory.classify_vertex"], "s"),
            "trajectory.choose_wp_s": (self.total["trajectory.choose_conjugate_momentum"], "s"),
            "bounds.estimate_bounds_s": (self.total["bounds.estimate_bounds"], "s"),
            "bounds.sample_points": (self.sample_points, "count"),
            "bounds.model_evals_per_point": (_ratio(evals_in_bounds, self.sample_points), "ratio"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.layer_self(layer), "s")
        return out


def _ratio(num, den) -> float:
    """num/den, reported as 0 when nothing was attempted."""
    return num / den if den else 0.0


def _after_solve(tracer, args, kwargs, result, nested):
    tracer.newton_iters += result[1]


def _after_roots(tracer, args, kwargs, result, nested):
    tracer.roots += len(result.roots)
    tracer.unsearched += len(result.unsearched)


def _after_step(tracer, args, kwargs, result, nested):
    hint = kwargs.get("hint", args[4] if len(args) > 4 else None)
    if hint is not None:
        tracer.hinted_steps += 1
        tracer.fast_steps += nested[0] == 0


def _after_bounds(tracer, args, kwargs, result, nested):
    tracer.sample_points += result.sample_count


_ON_RETURN = {
    "decoupler.solve_midpoint_coords": _after_solve,
    "multiplier.solve_roots": _after_roots,
    "trajectory.step": _after_step,
    "bounds.estimate_bounds": _after_bounds,
}
