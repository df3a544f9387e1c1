import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semint import cli

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=None):
    """``semint.cli.main`` in this process, with what a ``python -m semint``
    subprocess returns: exit code, stdout and stderr.

    A ``SystemExit`` (argparse's usage errors and ``--help``) becomes its
    exit code.  Stricter than a subprocess: a warning raises, and an uncaught
    exception fails the test instead of becoming exit 1 and a traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd_before = os.getcwd()
    os.chdir(cwd or REPO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
    finally:
        os.chdir(cwd_before)
    return subprocess.CompletedProcess(["semint", *args], code, out.getvalue(), err.getvalue())


def run_cli_subprocess(*args, cwd=None):
    """``python -m semint`` as the user meets it: the entry point, numpy's
    error state and stderr.  Kept for ``--help``, one usage error and one
    run of each command; every other test calls ``run_cli``."""
    return subprocess.run(
        [sys.executable, "-m", "semint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
    )


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


BOUNDS_BLOCK = {"center": [0.0, 0.0, 0.0, 0.0], "radius": 2.5, "samples_per_axis": 9}


class TestRun:
    def test_pendulum_run_writes_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "model": {"name": "pendulum"},
                "initial": {"q0": 1.0, "p0": 0.5, "t0": 0.0, "lambda_target": 0.1},
                "steps": 50,
                "bounds": BOUNDS_BLOCK,
                "out": str(tmp_path / "out"),
            },
        )
        proc = run_cli("run", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert header == ["k", "lambda", "q1", "t", "p1", "wp", "abs_H_mid"]
        assert len(rows) == 51
        assert rows[-1][1] == ""  # the last vertex has no outgoing segment
        resids = [float(r[6]) for r in rows[:-1]]
        assert max(resids) <= 1e-10
        doc = json.loads((tmp_path / "out" / "events.json").read_text())
        assert len(doc["vertices"]) == 51
        assert len(doc["multipliers"]) == 50
        assert "max |H(z_bar)|" in proc.stdout

    def test_zero_steps_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "model": {"name": "pendulum"},
                "initial": {"q0": 1.0, "p0": 0.5, "lambda_target": 0.1},
                "steps": 0,
                "bounds": BOUNDS_BLOCK,
                "out": str(tmp_path / "out"),
            },
        )
        proc = run_cli("run", "--config", cfg)
        assert proc.returncode == 1

    def test_nonexistent_start_exits_2_with_case(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "model": {"name": "pendulum"},
                "initial": {"state": [0.0, 0.0, 1.0, 0.4]},  # H/psi < 0
                "steps": 10,
                "bounds": BOUNDS_BLOCK,
                "out": str(tmp_path / "out"),
            },
        )
        proc = run_cli("run", "--config", cfg)
        assert proc.returncode == 2
        assert "EU_1(i)" in proc.stdout

    def test_initial_state_exclusivity(self, tmp_path):
        both = {
            "model": {"name": "pendulum"},
            "initial": {"state": [0, 0, 1, 0.5], "lambda_target": 0.1},
            "steps": 5,
            "bounds": BOUNDS_BLOCK,
            "out": str(tmp_path / "out"),
        }
        proc = run_cli("run", "--config", write_config(tmp_path, "both.json", both))
        assert proc.returncode == 1
        neither = dict(both)
        neither["initial"] = {}
        proc = run_cli("run", "--config", write_config(tmp_path, "neither.json", neither))
        assert proc.returncode == 1

    def test_steps_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "model": {"name": "pendulum"},
                "initial": {"q0": 1.0, "p0": 0.5, "lambda_target": 0.1},
                "steps": 50,
                "bounds": BOUNDS_BLOCK,
                "out": str(tmp_path / "out"),
            },
        )
        proc = run_cli("run", "--config", cfg, "--steps", "7")
        assert proc.returncode == 0
        _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert len(rows) == 8


def assert_config_error(proc):
    """Exit 1 with a one-line ``error: ...`` message and no traceback."""
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestRunConfigErrors:
    def test_missing_bounds_path(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "model": {"name": "pendulum"},
                "initial": {"q0": 1.0, "p0": 0.5, "lambda_target": 0.1},
                "steps": 5,
                "bounds": {"path": str(tmp_path / "no-such-bounds.json")},
                "out": str(tmp_path / "out"),
            },
        )
        assert_config_error(run_cli("run", "--config", cfg))

    def test_non_numeric_initial_state(self, tmp_path):
        # a JSON boolean is no number either: true was read as p = 1
        for state in ([0.0, 0.0, "one", 0.4], [0, 0, True, 0.6], [0.0, [1.0], 1.0, 0.4]):
            cfg = write_config(
                tmp_path,
                "run.json",
                {
                    "model": {"name": "pendulum"},
                    "initial": {"state": state},
                    "steps": 5,
                    "bounds": BOUNDS_BLOCK,
                    "out": str(tmp_path / "out"),
                },
            )
            assert_config_error(run_cli("run", "--config", cfg))


    @pytest.mark.parametrize(
        "initial, steps",
        [
            ({"q0": "one"}, 5),
            ({"p0": [0.5, "x"]}, 5),
            ({"t0": "zero"}, 5),
            ({"lambda_target": "tenth"}, 5),
            ({"lambda_target": 1e300}, 5),  # its square overflows
            ({}, "many"),
            ({}, True),  # JSON true, which Python would read as 1
            ({"q0": "1.0"}, 5),  # a numeric string, which float() would read
            ({"p0": "0.5"}, 5),
            ({"lambda_target": "0.1"}, 5),
            ({}, "3"),
            ({"lamda_target": 0.5}, 5),  # a misspelt key was ignored
        ],
        ids=["q0-non-numeric", "p0-non-numeric", "t0-non-numeric",
             "lambda-target-non-numeric", "lambda-target-overflows", "steps-non-numeric",
             "steps-boolean", "q0-string", "p0-string", "lambda-target-string", "steps-string",
             "initial-misspelt-key"],
    )
    def test_bad_initial_value(self, tmp_path, initial, steps):
        payload = {
            "model": {"name": "pendulum"},
            "initial": dict({"q0": 1.0, "p0": 0.5, "lambda_target": 0.1}, **initial),
            "steps": steps,
            "bounds": BOUNDS_BLOCK,
            "out": str(tmp_path / "out"),
        }
        assert_config_error(run_cli("run", "--config", write_config(tmp_path, "run.json", payload)))

    @pytest.mark.parametrize(
        "q0, p0",
        [([1.0, 2.0], [0.5]), ([1.0, 2.0], [0.5, 0.5]), ([], [])],
        ids=["q0-p0-lengths-differ", "two-components-for-n-1", "no-components"],
    )
    def test_initial_parts_need_n_components(self, tmp_path, q0, p0):
        payload = {
            "model": {"name": "pendulum"},
            "initial": {"q0": q0, "p0": p0, "lambda_target": 0.1},
            "steps": 5,
            "bounds": BOUNDS_BLOCK,
            "out": str(tmp_path / "out"),
        }
        proc = run_cli("run", "--config", write_config(tmp_path, "run.json", payload))
        assert_config_error(proc)
        assert "needs 1 component(s)" in proc.stderr


class TestRunEvaluationErrors:
    """Start states the oscillator cannot evaluate: a clean exit, never a traceback."""

    def _run(self, tmp_path, initial, bounds=None):
        payload = {"model": {"name": "oscillator"}, "initial": initial, "steps": 5,
                   "out": str(tmp_path / "out")}
        if bounds is not None:
            payload["bounds"] = bounds
        return run_cli("run", "--config", write_config(tmp_path, "run.json", payload))

    def test_conjugate_momentum_completion(self, tmp_path):
        assert_config_error(self._run(tmp_path, {"q0": 1e200, "p0": 0.5, "lambda_target": 0.1}))

    def test_bounds_around_start_state(self, tmp_path):
        assert_config_error(self._run(tmp_path, {"state": [1e200, 0.0, 0.0, 0.0]}))

    def test_first_step_terminates_run(self, tmp_path):
        proc = self._run(tmp_path, {"state": [1e200, 0.0, 0.0, 0.0]}, bounds=BOUNDS_BLOCK)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert "EvaluationError" in proc.stdout
        events = json.loads((tmp_path / "out" / "events.json").read_text())["events"]
        assert [e["kind"] for e in events] == ["terminated"]
        assert events[0]["index"] == 0 and events[0]["detail"].startswith("EvaluationError: ")


class TestLibraryErrorsAtTheBoundary:
    """A library error raised past the config readers is one ``error:`` line
    and exit 1 too: ``main`` catches every ``SemintError``."""

    def test_scan_from_a_state_the_model_cannot_evaluate(self, tmp_path):
        payload = {"model": {"name": "pendulum"}, "state": [0.0, 0.0, 1e200, 0.0],
                   "bounds": BOUNDS_BLOCK, "out": str(tmp_path / "out")}
        proc = run_cli("scan", "--config", write_config(tmp_path, "scan.json", payload))
        assert_config_error(proc)
        assert proc.stderr.strip() == "error: model value is non-finite"

    def test_map_over_momenta_the_model_cannot_evaluate(self, tmp_path):
        payload = {"model": {"name": "pendulum"},
                   "grid": {"q_min": -1.0, "q_max": 1.0, "p_min": 1e200, "p_max": 2e200,
                            "nq": 3, "np": 3},
                   "bounds": BOUNDS_BLOCK, "out": str(tmp_path / "out")}
        proc = run_cli("map", "--config", write_config(tmp_path, "map.json", payload))
        assert_config_error(proc)
        assert proc.stderr.strip() == "error: model value is non-finite"


def _bounds_config(tmp_path, command, bounds):
    """A small run or map config with the given bounds block."""
    payload = {"model": {"name": "pendulum"}, "bounds": bounds, "out": str(tmp_path / "out")}
    if command == "run":
        payload.update(initial={"q0": 1.0, "p0": 0.5, "lambda_target": 0.1}, steps=5)
    elif command == "scan":
        payload.update(state=[0.0, 0.0, 1.0, 0.501], lambda_range=[-0.05, 0.05], count=5)
    else:
        payload.update(grid={"q_min": -1.0, "q_max": 1.0, "p_min": -1.0, "p_max": 1.0,
                             "nq": 3, "np": 3})
    return write_config(tmp_path, f"{command}.json", payload)


class TestBoundsConfigErrors:
    @pytest.mark.parametrize("command", ["run", "map"])
    def test_save_into_missing_directory(self, tmp_path, command):
        bounds = dict(BOUNDS_BLOCK, save=str(tmp_path / "no-such-dir" / "bounds.json"))
        assert_config_error(run_cli(command, "--config", _bounds_config(tmp_path, command, bounds)))

    @pytest.mark.parametrize("command", ["run", "map"])
    def test_wrong_length_center(self, tmp_path, command):
        bounds = dict(BOUNDS_BLOCK, center=[0.0, 0.0, 0.0])
        assert_config_error(run_cli(command, "--config", _bounds_config(tmp_path, command, bounds)))

    @pytest.mark.parametrize(
        "override",
        [
            {"samples_per_axis": 2},
            {"safety": 0.0},
            {"radius": "wide"},
            {"radius": float("inf")},  # written as Infinity, read back as inf
            {"safety": "x"},
            {"delta": "y"},
            {"delta": 1.5},
            {"safety": 1e100},  # M2**3 overflows: K would be inf
            {"safety": 1e308},  # the scaled M1 is inf
            {"center": [0.0, False, 0.0, 0.0]},
            {"radius": "2.5"},  # a numeric string, which float() would read
            {"samples_per_axis": "9"},
            {"center": [0.0, 0.0, "0.0", 0.0]},
            {"sample_per_axis": 5},  # a misspelt key: the default 17 samples were taken
        ],
        ids=["samples-below-3", "safety-not-positive", "radius-non-numeric",
             "radius-infinite", "safety-non-numeric", "delta-non-numeric", "delta-outside-unit-interval",
             "safety-overflows-K", "safety-overflows-M1", "center-boolean", "radius-string",
             "samples-string", "center-string", "samples-misspelt-key"],
    )
    def test_bad_bounds_value(self, tmp_path, override):
        for command in ("run", "scan", "map"):
            bounds = dict(BOUNDS_BLOCK, **override)
            assert_config_error(run_cli(command, "--config", _bounds_config(tmp_path, command, bounds)))


class TestArtifactPathErrors:
    @pytest.mark.parametrize("command", ["run", "scan", "map"])
    @pytest.mark.parametrize(
        "out, edit",
        [("file", {}), ("file/sub", {}), (None, {}), (None, {"out": 5}),
         (None, {"bounds": dict(BOUNDS_BLOCK, save=5)})],
        ids=["out-is-a-file", "out-under-a-file", "artifact-is-a-directory",
             "out-not-a-string", "save-not-a-string"],
    )
    def test_unusable_path(self, tmp_path, command, out, edit):
        """An artifact path that cannot be written is a one-line error, not a traceback."""
        (tmp_path / "file").write_text("")
        artifact = {"run": "trajectory.csv", "scan": "scan.csv", "map": "map.csv"}[command]
        (tmp_path / "out" / artifact).mkdir(parents=True)  # inside the config's out directory
        cfg = Path(_bounds_config(tmp_path, command, BOUNDS_BLOCK))
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **edit}))
        args = ["--out", str(tmp_path / out)] if out else []
        assert_config_error(run_cli(command, "--config", str(cfg), *args))


SAVED_BOUNDS = {"M1": 2.7, "M2": 1.6, "gamma_H": 1.1, "N1": 3.0, "N2": 5.0,
                "center": [0.0, 0.0, 0.0, 0.0], "n": 1, "radius": 2.5}


class TestSavedBoundsErrors:
    @pytest.mark.parametrize("command", ["run", "scan", "map"])
    @pytest.mark.parametrize(
        "edit, says",
        [
            ({"M1": float("nan")}, "M1 must be finite"),  # written as NaN
            ({"M2": float("inf")}, "M2 must be finite"),  # written as Infinity
            ({"n": 2, "center": [0.0] * 6}, "saved for n = 2; the model has n = 1"),
            ({"M1": True}, "M1 must be finite and nonnegative, got True"),
            ({"n": True}, "n must be a whole number >= 1, got True"),
            ({"center": [0.0, False, 0.0, 0.0]},
             "center must be a finite number or a flat list of them, got [0.0, False, 0.0, 0.0]"),
            ({"radius": "2.5"}, "radius must be finite and positive, got '2.5'"),
            ({"n": 1.5}, "n must be a whole number"),  # int() read it as n = 1
            ({"safety": -3}, "safety must be finite and positive"),
            ({"sample_count": -5}, "sample_count must be a whole number >= 0"),
            ({"active_axes": [0, 7, "x"]}, "active_axes must be distinct integer axes"),
        ],
        ids=["M1-nan", "M2-infinite", "n-2-for-pendulum", "M1-boolean", "n-boolean",
             "center-boolean", "radius-string", "n-fractional", "safety-negative",
             "sample-count-negative", "active-axes-out-of-range"],
    )
    def test_bad_saved_file(self, tmp_path, command, edit, says):
        saved = tmp_path / "bounds.json"
        saved.write_text(json.dumps(dict(SAVED_BOUNDS, **edit)))
        proc = run_cli(command, "--config", _bounds_config(tmp_path, command, {"path": str(saved)}))
        assert_config_error(proc)
        assert says in proc.stderr

    def test_the_unedited_file_runs(self, tmp_path):
        saved = tmp_path / "bounds.json"
        saved.write_text(json.dumps(SAVED_BOUNDS))
        for command in ("run", "scan", "map"):
            proc = run_cli(command, "--config", _bounds_config(tmp_path, command, {"path": str(saved)}))
            assert proc.returncode == 0, proc.stderr


class TestScanConfigErrors:
    @pytest.mark.parametrize(
        "override",
        [
            {"state": [0.0, 0.0, 1.0]},
            {"lambda_range": [0.1]},
            {"count": "many"},
            {"lambda_range": [-1e80, 1e80]},  # lambda**4 overflows
            {"lambda_range": [-1.0, 1.2e77]},
            {"state": [0.0, 0.0, True, 0.501]},
            {"count": "5"},  # a numeric string, which float() would read
            {"lambda_range": ["-0.05", 0.05]},
        ],
        ids=["state-wrong-length", "lambda-range-one-value", "count-non-numeric",
             "lambda-range-overflows", "lambda-range-end-overflows", "state-boolean",
             "count-string", "lambda-range-string"],
    )
    def test_bad_value(self, tmp_path, override):
        payload = {"model": {"name": "pendulum"}, "state": [0.0, 0.0, 1.0, 0.501],
                   "bounds": BOUNDS_BLOCK, "out": str(tmp_path / "out")}
        payload.update(override)
        assert_config_error(run_cli("scan", "--config", write_config(tmp_path, "scan.json", payload)))


class TestScan:
    @pytest.fixture()
    def scan_rows(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "scan.json",
            {
                "model": {"name": "pendulum"},
                "state": [0.0, 0.0, 1.0, 0.501],
                "lambda_range": [-0.11, 0.11],
                "count": 45,  # odd: includes lambda = 0 exactly
                "bounds": BOUNDS_BLOCK,
                "out": str(tmp_path / "out"),
            },
        )
        proc = run_cli("scan", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        return read_csv(tmp_path / "out" / "scan.csv")

    def test_columns(self, scan_rows):
        header, rows = scan_rows
        assert header == ["lambda", "g", "model", "bound", "dg_dlambda"]
        assert len(rows) == 45

    def test_zero_row_equals_hamiltonian(self, scan_rows):
        _, rows = scan_rows
        zero = min(rows, key=lambda r: abs(float(r[0])))
        assert float(zero[0]) == 0.0
        assert float(zero[1]) == pytest.approx(1e-3, abs=1e-13)  # H(z_k)
        assert abs(float(zero[4])) <= 1e-12  # zero slope at 0

    def test_model_envelope_holds(self, scan_rows):
        _, rows = scan_rows
        for r in rows:
            if r[1] == "":
                continue
            assert abs(float(r[1]) - float(r[2])) <= float(r[3]) + 1e-11

    def test_deterministic_output(self, tmp_path):
        payload = {
            "model": {"name": "pendulum"},
            "state": [0.3, 0.0, 0.9, 0.2],
            "lambda_range": [-0.1, 0.1],
            "count": 21,
            "bounds": BOUNDS_BLOCK,
        }
        outs = []
        for run_id in ("a", "b"):
            payload["out"] = str(tmp_path / run_id)
            proc = run_cli("scan", "--config", write_config(tmp_path, f"{run_id}.json", payload))
            assert proc.returncode == 0
            outs.append((tmp_path / run_id / "scan.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unsolvable_rows_marked_missing(self, tmp_path):
        # q = pi makes the midpoint Jacobian singular exactly at lambda = 2
        cfg = write_config(
            tmp_path,
            "scan.json",
            {
                "model": {"name": "pendulum"},
                "state": [np.pi, 0.0, 0.0, -1.0],
                "lambda_range": [1.9, 2.1],
                "count": 3,
                "bounds": BOUNDS_BLOCK,
                "out": str(tmp_path / "out"),
            },
        )
        proc = run_cli("scan", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(tmp_path / "out" / "scan.csv")
        middle = [r for r in rows if float(r[0]) == 2.0]
        assert middle and middle[0][1] == "" and middle[0][4] == ""
        assert middle[0][2] != ""  # the cubic model column is still filled


class TestMap:
    def test_small_map(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "map.json",
            {
                "model": {"name": "pendulum"},
                "grid": {"q_min": -np.pi, "q_max": np.pi, "p_min": -3.0, "p_max": 3.0,
                         "nq": 21, "np": 21},
                "t": 0.0,
                "wp_rule": {"kind": "h-zero"},
                "bounds": {"center": [0.0, 0.0, 0.0, 0.0], "radius": 4.0, "samples_per_axis": 9},
                "out": str(tmp_path / "out"),
            },
        )
        proc = run_cli_subprocess("map", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        header, rows = read_csv(tmp_path / "out" / "map.csv")
        assert header == ["q", "p", "psi", "psi_prime", "region", "vertex_class"]
        assert len(rows) == 21 * 21
        from semint.models import pendulum_psi, pendulum_psi_prime

        degenerate = 0
        for r in rows:
            q, p = float(r[0]), float(r[1])
            assert float(r[2]) == pytest.approx(pendulum_psi(q, p), abs=1e-10)
            assert float(r[3]) == pytest.approx(pendulum_psi_prime(q, p), abs=1e-8)
            if r[4] == "degenerate":
                degenerate += 1
        # the equilibria rows (p = 0 with q in {0, +-pi}) are tagged degenerate
        assert degenerate >= 3

    def test_grid_validation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "map.json",
            {
                "model": {"name": "pendulum"},
                "grid": {"q_min": 0, "q_max": 1, "p_min": 0, "p_max": 1, "nq": 1, "np": 5},
                "out": str(tmp_path / "out"),
            },
        )
        assert run_cli("map", "--config", cfg).returncode == 1

    def test_parallel_map_matches_serial(self, tmp_path):
        payload = {
            "model": {"name": "pendulum"},
            "grid": {"q_min": -2.0, "q_max": 2.0, "p_min": -2.0, "p_max": 2.0,
                     "nq": 9, "np": 9},
            "bounds": {"center": [0.0, 0.0, 0.0, 0.0], "radius": 3.0, "samples_per_axis": 7},
        }
        outputs = []
        for jobs, tag in ((1, "serial"), (2, "parallel")):
            payload["jobs"] = jobs
            payload["out"] = str(tmp_path / tag)
            cfg = write_config(tmp_path, f"{tag}.json", payload)
            proc = run_cli("map", "--config", cfg)
            assert proc.returncode == 0, proc.stderr
            outputs.append((tmp_path / tag / "map.csv").read_bytes())
        assert outputs[0] == outputs[1]


# map.csv hashes recorded before `semint map` switched to one stacked field
# pass per row; any change to a byte of the map shows up here.
GOLDEN_MAPS = {
    # criterion-9-like window whose grid passes through psi = 0 (region III at
    # (+-q, +-p) = (+-0.55 Q, +-0.95 P)) and close to it elsewhere (region II)
    "pendulum-h-zero": (
        {
            "model": {"name": "pendulum"},
            "grid": {"q_min": -3.0742000000000003, "q_max": 3.0742000000000003,
                     "p_min": -3.0202812278852775, "p_max": 3.0202812278852775,
                     "nq": 41, "np": 41},
            "t": 0.0,
            "wp_rule": {"kind": "h-zero"},
            "bounds": {"center": [0.0, 0.0, 0.0, 0.0], "radius": 4.0, "samples_per_axis": 9},
        },
        {"I": 1664, "II": 12, "III": 4, "degenerate": 1},
        {"fixed-point": 1672, "indeterminate": 4, "bifurcates": 4, "degenerate": 1},
        "ad054e5d550773ef2b1adc1d4e38fa3b8e71177cc9922489ac3bfbef29bda26f",
    ),
    # H = wp + (p^2 + q^2) / 2 sits just above 0 at the four grid points on
    # the unit circle (pass-through) and below it elsewhere (none)
    "oscillator-fixed": (
        {
            "model": {"name": "oscillator", "omega": 1.0},
            "grid": {"q_min": -1.0, "q_max": 1.0, "p_min": -1.0, "p_max": 1.0,
                     "nq": 15, "np": 11},
            "t": 0.25,
            "wp_rule": {"kind": "fixed", "value": -0.499999},
            "bounds": {"center": [0.0, 0.0, 0.0, 0.0], "radius": 2.0, "samples_per_axis": 7},
        },
        {"I": 164, "degenerate": 1},
        {"none": 160, "pass-through": 4, "degenerate": 1},
        "d733497c7910f778f0859a72fb7f396c05442e37d242e035344a53ec9c7db102",
    ),
}


class TestMapGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_MAPS))
    def test_map_csv_is_unchanged(self, tmp_path, name):
        payload, regions, classes, digest = GOLDEN_MAPS[name]
        cfg = write_config(tmp_path, "map.json", dict(payload, out=str(tmp_path / "out")))
        proc = run_cli("map", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        data = (tmp_path / "out" / "map.csv").read_bytes()
        _, rows = read_csv(tmp_path / "out" / "map.csv")
        assert Counter(r[4] for r in rows) == regions
        assert Counter(r[5] for r in rows) == classes
        assert hashlib.sha256(data).hexdigest() == digest


# SHA-256 of the artifacts of a 300-step criterion-1 run and of a default
# scan, recorded before solve_roots became one loop over its search intervals
GOLDEN_RUN = {
    "payload": {
        "model": {"name": "pendulum"},
        "initial": {"q0": 1.0, "p0": 0.5, "t0": 0.0, "lambda_target": 0.1},
        "steps": 300,
        "bounds": {"center": [0.0, 0.0, 0.0, 0.0], "radius": 2.5, "samples_per_axis": 17},
    },
    # re-recorded when step began recording the midpoint its root search
    # checked; events.json also holds the vertices, its event list is unchanged
    "trajectory.csv": "25613c1683ad842c2fdc82e18988c019f24c4b42d10cbb4e77ed95d8c4174e01",
    "events.json": "7f2f8f0fd6f589b15b841ae860c4e6a14cded16e3195156486fcee32331f59fd",
}
GOLDEN_SCAN = {
    "payload": {"model": {"name": "pendulum"}, "state": [1.0, 0.0, 0.5, 0.4]},
    "scan.csv": "42aa9c90c8ef3517700c54082fb65ace0a7d1b3156414ef4d853d611c62aaf63",
}


class TestRunScanGolden:
    def test_run_artifacts_unchanged(self, tmp_path):
        cfg = write_config(tmp_path, "run.json", dict(GOLDEN_RUN["payload"], out=str(tmp_path)))
        proc = run_cli_subprocess("run", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        for name in ("trajectory.csv", "events.json"):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == GOLDEN_RUN[name]

    def test_scan_csv_unchanged(self, tmp_path):
        cfg = write_config(tmp_path, "scan.json", dict(GOLDEN_SCAN["payload"], out=str(tmp_path)))
        proc = run_cli_subprocess("scan", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        _, rows = read_csv(tmp_path / "scan.csv")
        assert len(rows) == 201
        digest = hashlib.sha256((tmp_path / "scan.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SCAN["scan.csv"]


class TestMapConfigErrors:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("jobs",), "two"),
            (("jobs",), float("inf")),
            (("jobs",), True),  # JSON true, which Python would read as 1
            (("grid", "nq"), "many"),
            (("grid", "nq"), 2.5),
            (("grid", "np"), float("inf")),
            (("grid", "q_min"), "left"),
            (("grid", "p_max"), float("inf")),
            (("t",), "noon"),
            (("t",), float("inf")),
            (("wp_rule", "value"), "cold"),
            (("wp_rule", "value"), float("-inf")),
            (("grid", "nq"), "3"),  # a numeric string, which float() would read
            (("t",), "0.0"),
        ],
        ids=["jobs-non-integer", "jobs-infinite", "jobs-boolean", "nq-non-integer", "nq-fractional",
             "np-infinite", "q_min-non-numeric", "p_max-infinite", "t-non-numeric",
             "t-infinite", "wp-value-non-numeric", "wp-value-infinite", "nq-string", "t-string"],
    )
    def test_bad_value(self, tmp_path, path, value):
        payload = {
            "model": {"name": "pendulum"},
            "grid": {"q_min": -1.0, "q_max": 1.0, "p_min": -1.0, "p_max": 1.0, "nq": 3, "np": 3},
            "wp_rule": {"kind": "fixed", "value": 0.0},
            "bounds": BOUNDS_BLOCK,
            "out": str(tmp_path / "out"),
        }
        block = payload
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
        assert_config_error(run_cli("map", "--config", write_config(tmp_path, "map.json", payload)))


class TestConfigShape:
    @pytest.mark.parametrize("command", ["run", "scan", "map", "verify"])
    def test_top_level_must_be_an_object(self, tmp_path, command):
        cfg = write_config(tmp_path, "list.json", [1, 2])
        assert_config_error(run_cli(command, "--config", cfg))

    def test_map_wp_rule_must_be_an_object(self, tmp_path):
        payload = {
            "grid": {"q_min": -1.0, "q_max": 1.0, "p_min": -1.0, "p_max": 1.0, "nq": 3, "np": 3},
            "wp_rule": "h-zero",
            "bounds": BOUNDS_BLOCK,
            "out": str(tmp_path / "out"),
        }
        assert_config_error(run_cli("map", "--config", write_config(tmp_path, "map.json", payload)))

    @staticmethod
    def _payload(command, tmp_path):
        payload = {"model": {"name": "pendulum"}, "bounds": BOUNDS_BLOCK,
                   "out": str(tmp_path / "out")}
        payload.update({
            "run": {"initial": {"q0": 1.0, "p0": 0.5, "lambda_target": 0.1}, "steps": 2},
            "scan": {"state": [0.0, 0.0, 1.0, 0.501], "count": 3},
            "map": {"grid": {"q_min": -1.0, "q_max": 1.0, "p_min": -1.0, "p_max": 1.0,
                             "nq": 3, "np": 3}},
        }[command])
        return payload

    @pytest.mark.parametrize(
        "command, key, value, got",
        [
            ("run", "model", "pendulum", "str"),
            ("scan", "model", "pendulum", "str"),
            ("map", "model", "pendulum", "str"),
            ("run", "bounds", 5, "int"),
            ("map", "bounds", 5, "int"),
            ("run", "tolerances", 5, "int"),
            ("scan", "tolerances", 5, "int"),
            ("run", "initial", [1.0, 0.5], "list"),
            ("map", "grid", [-1.0, 1.0], "list"),
        ],
        ids=["run-model", "scan-model", "map-model", "run-bounds", "map-bounds",
             "run-tolerances", "scan-tolerances", "run-initial", "map-grid"],
    )
    def test_config_block_must_be_an_object(self, tmp_path, command, key, value, got):
        payload = self._payload(command, tmp_path)
        payload[key] = value
        proc = run_cli(command, "--config", write_config(tmp_path, "cfg.json", payload))
        assert_config_error(proc)
        assert proc.stderr.strip() == f"error: {key} must be an object, got {got}"

    @pytest.mark.parametrize(
        "command, path, key, expected",
        [
            ("run", (), "step", "model, initial, steps, policy, tolerances, bounds, out"),
            ("run", (), "polcy", "model, initial, steps, policy, tolerances, bounds, out"),
            ("scan", (), "lambda_rnage", "model, state, lambda_range, count, tolerances, bounds, out"),
            ("map", (), "job", "model, grid, t, wp_rule, jobs, bounds, out"),
            ("verify", (), "sed", "seed"),
            ("run", ("initial",), "lamda_target", "state, q0, p0, t0, lambda_target"),
            ("run", ("bounds",), "sample_per_axis",
             "radius, samples_per_axis, safety, delta, center, path, save"),
            ("map", ("grid",), "nqq", "q_min, q_max, p_min, p_max, nq, np"),
            ("map", ("wp_rule",), "vlaue", "kind, value"),
        ],
        ids=["run-top", "run-policy", "scan-top", "map-top", "verify-top", "run-initial",
             "run-bounds", "map-grid", "map-wp-rule"],
    )
    def test_unknown_key_is_refused(self, tmp_path, command, path, key, expected):
        """A misspelt key was ignored: the run took its default and exited 0."""
        payload = {} if command == "verify" else self._payload(command, tmp_path)
        payload = json.loads(json.dumps(payload))  # a copy: BOUNDS_BLOCK is shared
        if path == ("wp_rule",):
            payload["wp_rule"] = {"kind": "h-zero"}
        block = payload
        for name in path:
            block = block[name]
        block[key] = 1
        proc = run_cli(command, "--config", write_config(tmp_path, "cfg.json", payload))
        assert_config_error(proc)
        name = path[0] if path else "config"
        assert proc.stderr.strip() == f"error: unknown {name} key {key!r}; expected {expected}"

    @pytest.mark.parametrize("omega", [True, "2", 1e200], ids=["boolean", "string", "square-overflows"])
    def test_oscillator_refuses_an_omega_it_cannot_use(self, tmp_path, omega):
        payload = self._payload("run", tmp_path)
        payload["model"] = {"name": "oscillator", "omega": omega}
        proc = run_cli("run", "--config", write_config(tmp_path, "cfg.json", payload))
        assert_config_error(proc)
        assert proc.stderr.startswith("error: bad model config: omega must")

    def test_pendulum_rejects_parameters(self, tmp_path):
        payload = self._payload("run", tmp_path)
        payload["model"] = {"name": "pendulum", "omega": 2}
        proc = run_cli("run", "--config", write_config(tmp_path, "cfg.json", payload))
        assert_config_error(proc)
        assert "omega" in proc.stderr

    @pytest.mark.parametrize("seed", ["x", 2.5, float("inf")])
    def test_verify_seed_must_be_an_integer(self, tmp_path, seed):
        cfg = write_config(tmp_path, "verify.json", {"seed": seed})
        assert_config_error(run_cli("verify", "--config", cfg))

    def test_verify_seed_must_be_non_negative(self, tmp_path):
        cfg = write_config(tmp_path, "verify.json", {"seed": -1})
        for args in (("--config", cfg), ("--seed", "-1")):
            proc = run_cli("verify", *args)
            assert_config_error(proc)
            assert proc.stderr.strip() == "error: seed must be a whole number >= 0, got -1"


class TestVerify:
    def test_battery_passes(self):
        import time

        start = time.perf_counter()
        proc = run_cli_subprocess("verify")
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "quartic-bound" in proc.stdout
        assert "FAIL" not in proc.stdout
        assert elapsed < 60.0

    def test_injected_bad_k_fails(self):
        proc = run_cli("verify", "--inject-k-scale", "0.5")
        assert proc.returncode == 3
        assert "quartic-bound" in proc.stdout
        assert "FAIL" in proc.stdout

    def test_injected_nan_k_fails(self):
        # NaN compares false both ways, so the check must fail closed
        proc = run_cli("verify", "--inject-k-scale", "nan")
        assert proc.returncode == 3
        (line,) = [ln for ln in proc.stdout.splitlines() if ln.startswith("quartic-bound")]
        assert line.split()[1:3] == ["FAIL", "K=nan"]


    def test_grid_scan_check_bites(self, monkeypatch, capsys):
        # a batched grid that drifts from the scalar g must turn verify red
        from semint.cli import main
        from semint.constraint import ConstraintCurve

        original = ConstraintCurve.g_grid
        monkeypatch.setattr(ConstraintCurve, "g_grid", lambda self, lams: original(self, lams) + 1e-9)
        assert main(["verify"]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and failed[0].startswith("grid-scan")

    def test_root_polish_check_bites(self, monkeypatch, capsys):
        # a bracketed search that stops 5e-9 past its root must turn verify red
        from semint.cli import main
        from semint.constraint import ConstraintCurve

        original = ConstraintCurve.newton

        def off_by_a_little(self, lam, lo, hi, tol_g, max_steps, tol_lambda=None, g_lo=0.0):
            got, val = original(self, lam, lo, hi, tol_g, max_steps, tol_lambda, g_lo)
            return (got, val) if tol_lambda is None else (got + 5e-9, self.g(got + 5e-9))

        monkeypatch.setattr(ConstraintCurve, "newton", off_by_a_little)
        assert main(["verify"]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert any(line.startswith("root-polish") for line in failed)

    def test_stacked_fields_check_bites(self, monkeypatch, capsys):
        # a stacked psi one ulp off the scalar form must turn verify red
        from semint import extphase
        from semint.cli import main

        original = extphase._psi_rows
        monkeypatch.setattr(extphase, "_psi_rows", lambda ws, h: np.nextafter(original(ws, h), np.inf))
        assert main(["verify"]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and failed[0].startswith("stacked-fields")


class TestBoundsReuse:
    def test_save_then_load(self, tmp_path):
        saved = tmp_path / "bounds.json"
        cfg1 = write_config(
            tmp_path,
            "first.json",
            {
                "model": {"name": "pendulum"},
                "state": [0.0, 0.0, 1.0, 0.501],
                "lambda_range": [-0.05, 0.05],
                "count": 11,
                "bounds": dict(BOUNDS_BLOCK, save=str(saved)),
                "out": str(tmp_path / "a"),
            },
        )
        assert run_cli("scan", "--config", cfg1).returncode == 0
        assert saved.exists()
        cfg2 = write_config(
            tmp_path,
            "second.json",
            {
                "model": {"name": "pendulum"},
                "state": [0.0, 0.0, 1.0, 0.501],
                "lambda_range": [-0.05, 0.05],
                "count": 11,
                "bounds": {"path": str(saved)},
                "out": str(tmp_path / "b"),
            },
        )
        assert run_cli("scan", "--config", cfg2).returncode == 0
        assert (tmp_path / "a" / "scan.csv").read_bytes() == (
            tmp_path / "b" / "scan.csv"
        ).read_bytes()


class TestCommandLine:
    """Each subcommand takes only the flags it reads; usage errors, bad
    tolerances and bad model parameters exit 1 (2 means no trajectory)."""

    FLAGS = {
        "run": {"--config", "--out", "--tol-g", "--tol-lambda", "--steps"},
        "scan": {"--config", "--out"},
        "map": {"--config", "--out"},
        "verify": {"--config", "--seed", "--inject-k-scale"},
    }

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_the_flags_the_command_reads(self, command):
        import re

        proc = run_cli_subprocess(command, "--help")
        assert proc.returncode == 0
        assert set(re.findall(r"--[a-z][a-z-]*", proc.stdout)) == self.FLAGS[command] | {"--help"}

    @pytest.mark.parametrize(
        "args",
        [("map", "--seed", "1"), ("run", "--bogus"), ("map", "--tol-g", "abc"),
         ("scan", "--tol-g", "5"), ()],
        ids=["map-seed", "run-bogus", "map-tol-g", "scan-tol-g", "no-command"],
    )
    def test_usage_error_exits_1(self, args):
        proc = (run_cli_subprocess if args == () else run_cli)(*args)  # the bare command: a subprocess
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip().splitlines()[-1].startswith("semint")
        assert ": error: " in proc.stderr

    @pytest.mark.parametrize(
        "tolerances, flags, message",
        [
            ({"tol_g": "x"}, (), "error: tolerances.tol_g must be finite and positive, got 'x'"),
            ({"solver_tol": -1}, (), "error: tolerances.solver_tol must be finite and positive, got -1"),
            ({}, ("--tol-g", "nan"), "error: --tol-g must be finite and positive, got nan"),
        ],
        ids=["tol-g-non-numeric", "solver-tol-negative", "tol-g-flag-nan"],
    )
    def test_bad_tolerance(self, tmp_path, tolerances, flags, message):
        payload = json.loads(Path(_bounds_config(tmp_path, "run", BOUNDS_BLOCK)).read_text())
        payload["tolerances"] = tolerances
        proc = run_cli("run", "--config", write_config(tmp_path, "run.json", payload), *flags)
        assert_config_error(proc)
        assert proc.stderr.strip() == message

    @pytest.mark.parametrize("command", ["run", "scan"])
    def test_unknown_tolerance_key(self, tmp_path, command):
        # a misspelt key would otherwise run silently with the default
        payload = json.loads(Path(_bounds_config(tmp_path, command, BOUNDS_BLOCK)).read_text())
        payload["tolerances"] = {"tolg": 5}
        proc = run_cli(command, "--config", write_config(tmp_path, "cfg.json", payload))
        assert_config_error(proc)
        assert proc.stderr.strip() == (
            "error: unknown tolerances key 'tolg'; expected tol_g, tol_lambda, solver_tol"
        )

    @pytest.mark.parametrize("key", ["tol_g", "tol_lambda"])
    def test_scan_rejects_root_tolerances(self, tmp_path, key):
        # scan finds no roots: a root tolerance in its config would be ignored
        payload = json.loads(Path(_bounds_config(tmp_path, "scan", BOUNDS_BLOCK)).read_text())
        payload["tolerances"] = {"solver_tol": 1e-13, key: 5}
        proc = run_cli("scan", "--config", write_config(tmp_path, "scan.json", payload))
        assert_config_error(proc)
        assert proc.stderr.strip() == (
            f"error: scan does not use tolerances key '{key}'; expected solver_tol"
        )

    def test_free_time_bad_n(self, tmp_path):
        payload = json.loads(Path(_bounds_config(tmp_path, "run", BOUNDS_BLOCK)).read_text())
        payload["model"] = {"name": "free_time", "n": "x"}
        proc = run_cli("run", "--config", write_config(tmp_path, "run.json", payload))
        assert_config_error(proc)
        assert proc.stderr.strip() == "error: bad model config: n must be a whole number >= 1, got 'x'"
