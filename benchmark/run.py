"""semint benchmark: one workload per process, end-to-end or traced.

    python3 benchmark/run.py --workload reference-run --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from its
``src/``).  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the bounded end-to-end ones (``setup_s``, ``op_ms_p95``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, measured by
rebinding module boundaries (see ``tracer.py``).  Lines before it give the
environment, the workload's composition and a readable table that adds the
unbounded ``ops_per_s`` and ``op_ms_p50`` and names the per-workload forms
(``steps_per_s``, ``step_ms_p50``, ``cells_per_s``) and ``fail_ratio``.

Workloads and metrics are declared in ``BENCHMARK.json`` at the checkout
root; ``README.md`` next to this file explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 0.5, 25
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    """One thread for BLAS/OpenMP; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_semint():
    """Import semint from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "semint" / "__init__.py").is_file():
        raise SystemExit(f"error: no semint package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import semint

    if Path(semint.__file__).resolve().parent != (src / "semint").resolve():
        raise SystemExit(f"error: imported semint from {semint.__file__}, not {src}")
    return semint


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int, variant: int) -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "variant": variant,
    }


class Tally:
    """attempted / failed operations and the first repeat's composition."""

    def __init__(self, workload, model):
        self.workload, self.model = workload, model
        self.attempted = self.failed = 0
        self.composition = None

    def add(self, out, state) -> None:
        attempted, failed = self.workload.check(out, self.model)
        self.attempted += attempted
        self.failed += failed
        if self.composition is None:
            self.composition = self.workload.composition(out, state, self.model)


def run_repeat(workload, model, state, latencies):
    """One repeat; an unexpected exception fails the repeat, never the run."""
    try:
        return workload.repeat(model, state, latencies)
    except Exception as exc:
        from workloads import report_exception

        report_exception(exc, f"{workload.name} repeat", workload.errors)
        return exc


def measure(workload, seconds: float) -> tuple[dict, dict, Tally, dict]:
    """End-to-end metrics with tracing off."""
    model = workload.model()
    workload.warm_up(model)
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        t0 = perf_counter()
        state = workload.setup(model)
        setups.append(perf_counter() - t0)

    tally = Tally(workload, model)
    latencies, rates = [], []
    start = perf_counter()
    while not rates or perf_counter() - start < seconds:
        t0 = perf_counter()
        out = run_repeat(workload, model, state, latencies)
        rates.append(workload.ops(out) / (perf_counter() - t0))
        tally.add(out, state)
    ms = [1e3 * x for x in latencies] or [0.0]  # no operation completed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms_p95": (percentile(ms, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # Printed but not bounded: on a shared host these central values move with
    # the share of the run the CPU spends in its fast state (see README.md).
    unbounded = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
    }
    info = {
        "setup_repeats": len(setups),
        "repeats": len(rates),
        "latency_samples": len(latencies),
        "op": workload.op_unit,
    }
    return metrics, unbounded, tally, info


def trace(workload, seconds: float) -> tuple[dict, dict, Tally, dict]:
    """Per-layer metrics of whole units (set-up plus one repeat), traced."""
    from tracer import Tracer

    model = workload.model()
    workload.warm_up(model)
    tally = Tally(workload, model)
    t0 = perf_counter()
    state = workload.setup(model)
    out = run_repeat(workload, model, state, None)
    untraced = perf_counter() - t0
    tally.add(out, state)

    units = []
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        tracer = Tracer()
        with tracer:
            traced_model = tracer.model(model)
            t0 = perf_counter()
            state = workload.setup(traced_model)
            out = run_repeat(workload, traced_model, state, None)
            wall = perf_counter() - t0
        tally.add(out, state)
        units.append((tracer, wall, workload.bytes_written(out)))

    first = units[0][0].metrics()
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":  # times: median over units; counts and ratios repeat exactly
            value = statistics.median(t.metrics()[name][0] for t, _, _ in units)
        metrics[name] = (value, unit)
    walls = [w for _, w, _ in units]
    metrics["cli.bytes_written"] = (units[0][2], "B")
    metrics["trace.wall_s"] = (statistics.median(walls), "s")
    metrics["trace.outside_s"] = (statistics.median(w - t.covered for t, w, _ in units), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / untraced, "ratio")
    info = {"units": len(units), "untraced_unit_s": untraced, "op": workload.op_unit}
    return metrics, {}, tally, info


ALIASES = {  # the per-workload names of the generic throughput / latency metrics
    "reference-run": {"ops_per_s": "steps_per_s", "op_ms_p50": "step_ms_p50", "op_ms_p95": "step_ms_p95"},
    "two-dof-run": {"ops_per_s": "steps_per_s", "op_ms_p50": "step_ms_p50", "op_ms_p95": "step_ms_p95"},
    "root-search": {"ops_per_s": "step_calls_per_s", "op_ms_p50": "step_ms_p50", "op_ms_p95": "step_ms_p95"},
    "phase-map": {"ops_per_s": "cells_per_s", "op_ms_p50": "cell_ms_p50", "op_ms_p95": "cell_ms_p95"},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    import_semint()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir=workdir)
    try:
        run = trace if args.trace else measure
        metrics, unbounded, tally, info = run(workload, args.seconds)
    finally:
        for path in sorted(workdir.glob("*")) if workdir.exists() else ():
            path.unlink()
        if workdir.exists():
            workdir.rmdir()

    for message in workload.errors:
        print(message, file=sys.stderr)
    env = environment(args.seed, workload.variant)
    env["held_out_seed"] = workloads.HELD_OUT_SEED
    print("# env " + json.dumps(env))
    print("# run " + json.dumps(info))
    print("# composition " + json.dumps(tally.composition))
    aliases = ALIASES[args.workload]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"#   {name:<36} {value:>14.6g} {unit}{alias}")
    for name, (value, unit) in unbounded.items():
        print(f"#   {name:<36} {value:>14.6g} {unit}  ({aliases[name]}; not bounded)")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"#   {'fail_ratio':<36} {ratio:>14.6g} ({tally.failed}/{tally.attempted})")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
