"""The calls the benchmark workloads make into semint must keep working.

``benchmark/workloads.py`` drives semint through its public API (and
``semint.cli.main``); a call that a refactor breaks would otherwise only
show up in the minutes-long benchmark run.  This check loads the workloads
module and runs each workload's own short warm-up, plus the composition
of a short reference run, which calls ``cubic_model``, ``classify_region``
and ``predict_roots(region, cubic, constants, shrink=, tol_g=)``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


def _workloads():
    name = "semint_bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up while it runs
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.mark.parametrize("name", sorted(_workloads().WORKLOADS))
def test_warm_up_runs(name, tmp_path):
    workload = _workloads().WORKLOADS[name](0, workdir=tmp_path)
    workload.warm_up(workload.model())
    assert workload.errors == []


def test_reference_run_composition(tmp_path):
    workload = _workloads().WORKLOADS["reference-run"](0, workdir=tmp_path)
    model = workload.model()
    state = workload.setup(model)
    out = workload.repeat(model, state, None, n_steps=20)
    composition = workload.composition(out, state, model)
    assert composition["steps"] == 20 and composition["sampled_steps"] == 2
    assert sum(composition["case_labels"].values()) == 2
