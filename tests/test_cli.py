import csv
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args, cwd=None):
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
        cfg = write_config(
            tmp_path,
            "run.json",
            {
                "model": {"name": "pendulum"},
                "initial": {"state": [0.0, 0.0, "one", 0.4]},
                "steps": 5,
                "bounds": BOUNDS_BLOCK,
                "out": str(tmp_path / "out"),
            },
        )
        assert_config_error(run_cli("run", "--config", cfg))


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
        ],
        ids=["samples-below-3", "safety-not-positive", "radius-non-numeric",
             "radius-infinite", "safety-non-numeric", "delta-non-numeric", "delta-outside-unit-interval"],
    )
    def test_bad_bounds_value(self, tmp_path, override):
        for command in ("run", "scan", "map"):
            bounds = dict(BOUNDS_BLOCK, **override)
            assert_config_error(run_cli(command, "--config", _bounds_config(tmp_path, command, bounds)))


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
        proc = run_cli("map", "--config", cfg)
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


class TestMapConfigErrors:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("jobs",), "two"),
            (("jobs",), float("inf")),
            (("grid", "nq"), "many"),
            (("grid", "nq"), 2.5),
            (("grid", "np"), float("inf")),
            (("grid", "q_min"), "left"),
            (("grid", "p_max"), float("inf")),
            (("t",), "noon"),
            (("t",), float("inf")),
            (("wp_rule", "value"), "cold"),
            (("wp_rule", "value"), float("-inf")),
        ],
        ids=["jobs-non-integer", "jobs-infinite", "nq-non-integer", "nq-fractional",
             "np-infinite", "q_min-non-numeric", "p_max-infinite", "t-non-numeric",
             "t-infinite", "wp-value-non-numeric", "wp-value-infinite"],
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


class TestVerify:
    def test_battery_passes(self):
        import time

        start = time.perf_counter()
        proc = run_cli("verify")
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


    def test_grid_scan_check_bites(self, monkeypatch, capsys):
        # a batched grid that drifts from the scalar g must turn verify red
        from semint.cli import main
        from semint.constraint import ConstraintCurve

        original = ConstraintCurve.g_grid
        monkeypatch.setattr(ConstraintCurve, "g_grid", lambda self, lams: original(self, lams) + 1e-9)
        assert main(["verify"]) == 3
        failed = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert len(failed) == 1 and failed[0].startswith("grid-scan")


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
