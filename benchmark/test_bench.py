"""Self-tests of the benchmark: oracle, injected faults and traced runs.

    python3 -m pytest -q benchmark/test_bench.py

They take a few minutes (the 200x200 map alone takes about 8 s per run).
"""

from __future__ import annotations

import math
import shutil
from time import perf_counter

import pytest

from run import ROOT, import_semint, pin_environment

pin_environment()
import_semint()

import workloads as W  # noqa: E402
from tracer import LAYERS, MODEL_SPANS, PATCHES, Tracer  # noqa: E402

WORKDIR = ROOT / "benchmark" / ".work" / "test"


@pytest.fixture(scope="module", autouse=True)
def _clean_workdir():
    yield
    shutil.rmtree(WORKDIR, ignore_errors=True)


def unit(name, seed=W.DEFAULT_SEED, fault=W.NO_FAULT, tracer=None):
    """Set-up plus one repeat; returns (workload, output, attempted, failed)."""
    workload = W.WORKLOADS[name](seed, fault, WORKDIR)
    model = workload.model()
    if tracer is None:
        out = workload.repeat(model, workload.setup(model), None)
    else:
        with tracer:
            traced = tracer.model(model)
            t0 = perf_counter()
            out = workload.repeat(traced, workload.setup(traced), None)
            tracer.wall = perf_counter() - t0
    attempted, failed = workload.check(out, model)
    return workload, out, attempted, failed


def fingerprint(name, out):
    """Everything a user sees of one repeat, for exact comparison."""
    if name == "phase-map":
        return out.csv_path.read_bytes()
    if name == "root-search":
        return [W.outcome(item) for item in out]
    return (
        [v.coords.tolist() for v in out.vertices],
        list(out.multipliers),
        [(e.index, e.kind, e.detail) for e in out.events],
    )


@pytest.mark.parametrize("seed", [W.DEFAULT_SEED, W.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_clean_program_passes_the_oracle(name, seed):
    _, _, attempted, failed = unit(name, seed)
    assert attempted > 0 and failed == 0


# DerivedConstants.K scaled as `semint verify --inject-k-scale 0.5` does: it
# moves the region II/III case tables, so only root-search (which steps on
# those regions) sees it; every reference/two-dof step stays EU_1(iv).
# search_beyond_window=False removes the roots past Lambda_k that every
# trajectory step and the I-beyond root-search calls use.  The map CLI takes
# neither option, so phase-map is not part of these checks.
FAULTS = {
    "k-scale": (W.Fault(k_scale=0.5), {"root-search"}),
    "no-extension": (W.Fault(search_beyond_window=False),
                     {"reference-run", "root-search", "two-dof-run"}),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", ["reference-run", "root-search", "two-dof-run"])
def test_injected_fault_turns_the_oracle_red_only_where_it_acts(name, fault):
    injected, affected = FAULTS[fault]
    _, _, attempted, failed = unit(name, fault=injected)
    if name in affected:
        assert failed > 0
    else:
        assert failed == 0 and attempted > 0


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_run_matches_untraced_and_accounts_for_its_time(name):
    _, plain, _, _ = unit(name)
    plain_fp = fingerprint(name, plain)
    runs = []
    for _ in range(2):
        tracer = Tracer()
        _, out, _, failed = unit(name, tracer=tracer)
        assert failed == 0
        assert fingerprint(name, out) == plain_fp
        runs.append(tracer)
    first, second = (t.metrics() for t in runs)
    for metric, (value, unit_name) in first.items():
        if unit_name != "s":
            assert second[metric][0] == value, metric
    known = {n for _, _, n in PATCHES} | set(MODEL_SPANS)
    for tracer in runs:
        # every span belongs to a layer, and the layers' self times add up to
        # the time covered by top-level spans, which lies inside the wall time
        assert set(tracer.calls) <= known
        self_sum = sum(tracer.layer_self(layer) for layer in LAYERS)
        assert math.isclose(self_sum, tracer.covered, rel_tol=1e-9)
        assert 0.9 * tracer.wall <= tracer.covered <= tracer.wall


def test_predicted_counts():
    tracer = Tracer()
    unit("reference-run", tracer=tracer)
    m = tracer.metrics()
    assert m["multiplier.solve_roots.calls"][0] == 1
    assert m["trajectory.fast_path_ratio"][0] == 1.0
    assert m["trajectory.steps"][0] == 2000
    assert 5500 <= m["decoupler.solves"][0] <= 7000
    tracer = Tracer()
    unit("phase-map", tracer=tracer)
    m = tracer.metrics()
    assert m["decoupler.solves"][0] == 0
    assert m["extphase.sample_fields.calls"][0] == 3 * 200 * 200
