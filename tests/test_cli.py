"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from chargeplane import cli, lapack, resonance
from chargeplane.cli import main
from chargeplane.hamiltonian import RotatedHamiltonian

HYDROGEN = {
    # V = 0 at lambda = 2 sqrt(-2E) diagonalizes exactly: Z_n = -(n+1) at E = -1/2
    "channel": {"l": 0, "n_basis": 5, "scale": 2.0, "theta": 0.0},
    "scan": {"energy": {"re": -0.5, "im": 0.0}},
}

SWEEP = {
    "potential": [{"c": 7.5, "p": 2, "b": 1.0, "q": 1}],
    "channel": {"l": 0, "n_basis": 30, "scale": 20.0, "theta": 0.7},
    "scan": {"grid": {"re_start": 1.0, "re_end": 5.0, "steps": 3, "im_part": -0.5}},
}

FIND = {
    "potential": [{"c": 7.5, "p": 2, "b": 1.0, "q": 1}],
    "channel": {"l": 0, "n_basis": 150, "scale": 20.0, "theta": 0.7},
    "scan": {"guess": {"re": 3.43, "im": -0.01}, "z_targets": [0.0]},
}

# A Gaussian term rotated past theta = pi/4 grows like exp(b r^2 |cos 2 theta|)
# and overflows at the outer quadrature nodes; every command needs a scan key.
OVERFLOWING = {
    "potential": [{"c": 1.0, "p": 0, "b": 2.0, "q": 2}],
    "channel": {"l": 0, "n_basis": 40, "scale": 0.5, "theta": 0.875},
    "scan": {**SWEEP["scan"], **FIND["scan"], "energy": {"re": 3.43, "im": -0.01}},
}


NON_NUMERIC = {
    "channel.scale": "twenty",
    "scan.z_targets": ["zero"],
    "scan.window": "wide",
    "scan.im_schedule": [-0.1, "deep"],
    "stability.lambda_values": ["twenty"],
    "stability.theta_values": [0.7, "steep"],
    "stability.n_values": ["many"],
    "stability.tolerance": "tight",
    "table.tolerance": "loose",
}

# the pole at 4.8348 - 1.1179i at N = 60, which theta = 0.05 under-rotates
UNDER_ROTATED = {
    "channel": {**FIND["channel"], "n_basis": 60},
    "scan": {"guess": {"re": 4.8345, "im": -1.117}, "z_targets": [0.0]},
}

# case -> (what the error message names, sections that replace FIND's)
OUT_OF_RANGE = {
    "stability-tolerance-nan": ("stability.tolerance", {"stability": {"tolerance": float("nan")}}),
    "stability-tolerance-inf": ("stability.tolerance", {"stability": {"tolerance": float("inf")}}),
    "stability-tolerance-negative": ("stability.tolerance", {"stability": {"tolerance": -1e-8}}),
    "table-tolerance-nan": ("table.tolerance", {"table": {"tolerance": float("nan")}}),
    "table-tolerance-negative": ("table.tolerance", {"table": {"tolerance": -1e-6}}),
    "stability-n_values-fractional": ("stability.n_values", {"stability": {"n_values": [120.7]}}),
    "channel-l-fractional": ("channel.l", {"channel": {**FIND["channel"], "l": 0.9}}),
    "channel-l-boolean": ("channel.l", {"channel": {**FIND["channel"], "l": True}}),
    "channel-n_basis-fractional": (
        "channel.n_basis",
        {"channel": {**FIND["channel"], "n_basis": 120.7}},
    ),
    "channel-quad_size-fractional": (
        "channel.quad_size",
        {"channel": {**FIND["channel"], "quad_size": 150.5}},
    ),
    "scan-grid-steps-fractional": (
        "scan.grid.steps",
        {"scan": {**FIND["scan"], "grid": {"re_start": 1.0, "re_end": 5.0, "steps": 10.5}}},
    ),
    "potential-p-fractional": (
        "potential term 0: p",
        {"potential": [{"c": 7.5, "p": 2.5, "b": 1.0, "q": 1}]},
    ),
    "potential-q-fractional": (
        "potential term 0: q",
        {"potential": [{"c": 7.5, "p": 2, "b": 1.0, "q": 1.5}]},
    ),
    # a grid value no scan reaches: this pole settles at its second point
    "stability-lambda_values-unreached": (
        "stability.lambda_values",
        {**UNDER_ROTATED, "stability": {"lambda_values": [20.0, 0.0], "theta_values": [0.05, 0.7]}},
    ),
    "stability-theta_values-unreached": (
        "stability.theta_values",
        {**UNDER_ROTATED, "stability": {"lambda_values": [20.0], "theta_values": [0.05, 0.7, 2.0]}},
    ),
    "stability-n_values-unreached": (
        "stability.n_values",
        {**UNDER_ROTATED, "stability": {"theta_values": [0.05, 0.7], "n_values": [60, 0]}},
    ),
    "scan-z_targets-inf": ("scan.z_targets", {"scan": {**FIND["scan"], "z_targets": [0.0, np.inf]}}),
    "scan-z_targets-nan": ("scan.z_targets", {"scan": {**FIND["scan"], "z_targets": [np.nan]}}),
    "channel-scale-inf": ("channel.scale", {"channel": {**FIND["channel"], "scale": np.inf}}),
}


def _readme_config() -> dict:
    """The run.yaml shown in the README."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```yaml\n# run\.yaml\n(.*?)```", readme, re.DOTALL)
    return yaml.safe_load(block)


def _run_cli(command, cfg) -> subprocess.CompletedProcess:
    """`python -m chargeplane.cli command --config cfg` in a new interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "chargeplane.cli", command, "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=120)


def _write_cfg(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


class TestEigs:
    def test_readme_config_runs(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _readme_config())
        assert main(["eigs", "--config", cfg]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 200  # header, N charges

    def test_hydrogen_spectrum_to_stdout(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, HYDROGEN)
        assert main(["eigs", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "z_re,z_im"
        values = [complex(float(a), float(b)) for a, b in (l.split(",") for l in lines[1:])]
        assert np.allclose(sorted(v.real for v in values), [-5, -4, -3, -2, -1])
        assert all(abs(v.imag) < 1e-12 for v in values)

    def test_out_directory(self, tmp_path):
        cfg = _write_cfg(tmp_path, HYDROGEN)
        out = tmp_path / "results"
        assert main(["eigs", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "eigenvalues.csv").read_text().startswith("z_re,z_im\n")

    def test_missing_energy_is_config_error(self, tmp_path, capsys):
        data = {"channel": HYDROGEN["channel"]}
        cfg = _write_cfg(tmp_path, data)
        assert main(["eigs", "--config", cfg]) == 2
        assert "scan.energy" in capsys.readouterr().err


class TestSweep:
    def test_csv_shape(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, SWEEP)
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "branch_id,e_re,e_im,z_re,z_im"
        # 30 branches x 3 grid points
        assert len(lines) == 1 + 30 * 3

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = _write_cfg(tmp_path, SWEEP)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1), "--svg"]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--svg"]) == 0
        for name in ("trajectories.csv", "trajectories.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_svg_emitted_only_on_request(self, tmp_path):
        cfg = _write_cfg(tmp_path, SWEEP)
        out = tmp_path / "plain"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert not (out / "trajectories.svg").exists()


class TestScan:
    def test_readme_counts_hold(self, tmp_path, monkeypatch):
        # the scan paragraph's figures, from both configs it quotes: the
        # README run.yaml (N = 200) and the same at N = 150
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        readme = " ".join(readme.split())
        (quoted,) = re.findall(
            r"With N = 150, lambda = 20, theta = 0\.7 and Re E in \[0, 10\], `scan` lists (\d+) "
            r"poles, (\d+) of them on a plateau \(([\d., and]+)\); with the N = 200 config below "
            r"it lists (\d+), and the same (\d+) are on a plateau",
            readme,
        )
        (factorizations,) = re.findall(r"a `scan` pass at N = 150 takes (\d+)", readme)
        plateau_e_r = [float(v) for v in re.findall(r"[\d.]+", quoted[2])]
        factored = []
        original = lapack.ldlt
        monkeypatch.setattr(lapack, "ldlt", lambda mat: factored.append(1) or original(mat))
        data = _readme_config()
        counts = []
        for n_basis in (150, 200):
            cfg = _write_cfg(tmp_path, {**data, "channel": {**data["channel"], "n_basis": n_basis}})
            factored.clear()
            out = tmp_path / f"n{n_basis}"
            assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
            records = json.loads((out / "resonances.json").read_text())
            plateau = [r["e_r"] for r in records if r["stability"]["plateau"]]
            assert [round(e, 5) for e in plateau] == plateau_e_r
            counts.append((len(records), len(plateau), len(factored)))
        (n150, p150, f150), (n200, p200, _) = counts
        assert (n150, p150, n200, p200) == tuple(int(quoted[i]) for i in (0, 1, 3, 4))
        assert f150 == int(factorizations)


class TestFind:
    def test_refines_known_resonance(self, tmp_path):
        cfg = _write_cfg(tmp_path, FIND)
        out = tmp_path / "res"
        assert main(["find", "--config", cfg, "--out", str(out)]) == 0
        records = json.loads((out / "resonances.json").read_text())
        assert len(records) == 1
        rec = records[0]
        assert rec["converged"] is True
        assert rec["z_target"] == 0.0
        assert rec["l"] == 0
        assert rec["e_r"] == pytest.approx(3.426390331, abs=1e-6)
        assert rec["gamma"] == pytest.approx(0.025549, abs=1e-5)

    def test_sharp_resonance_is_not_warned(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, FIND)
        assert main(["find", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        assert capsys.readouterr().err == ""

    def test_warns_outside_exposure_window(self, tmp_path, capsys):
        # converges to 0.21996 - 3.24866i: |arg E| = 1.503 > 2 theta = 1.4
        data = {**FIND, "scan": {"guess": {"re": 0.22, "im": -3.25}, "z_targets": [0.0]}}
        cfg = _write_cfg(tmp_path, data)
        assert main(["find", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "exposure window" in err and "1.503" in err
        rec = json.loads((tmp_path / "res" / "resonances.json").read_text())[0]
        assert rec["converged"] is True
        assert rec["e_r"] == pytest.approx(0.21996, abs=1e-5)

    def test_requires_targets(self, tmp_path):
        data = {**FIND, "scan": {"guess": {"re": 3.4, "im": -0.01}}}
        cfg = _write_cfg(tmp_path, data)
        assert main(["find", "--config", cfg]) == 2


class TestStability:
    def test_report_in_json(self, tmp_path, capsys):
        data = dict(FIND)
        data["stability"] = {
            "lambda_values": [15.0, 20.0],
            "theta_values": [0.7],
            "n_values": [150],
        }
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "res"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        rec = json.loads((out / "resonances.json").read_text())[0]
        assert rec["stability"]["plateau"] is True
        assert rec["stability"]["max_deviation"] <= 1e-8
        assert len(rec["stability"]["grid"]) == 2
        assert capsys.readouterr().err == ""

    def test_warns_outside_exposure_window(self, tmp_path, capsys):
        data = {
            **FIND,
            "scan": {"guess": {"re": 0.22, "im": -3.25}, "z_targets": [0.0]},
            "stability": {"lambda_values": [20.0], "theta_values": [0.7], "n_values": [150]},
        }
        cfg = _write_cfg(tmp_path, data)
        assert main(["stability", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "exposure window" in err

    def test_non_plateau_grid_stops_at_settling_point(self, tmp_path):
        # the pole's own point (20, 0.7) comes first, then (25, 0.7) at its
        # own theta, which agrees; theta = 0.05 under-rotates the pole at
        # 4.8348 - 1.1179i, so (20, 0.05) converges elsewhere and settles
        # the verdict before (25, 0.05) is visited
        data = {
            **FIND,
            "channel": {**FIND["channel"], "n_basis": 120},
            "scan": {"guess": {"re": 4.8345, "im": -1.117}, "z_targets": [0.0]},
            "stability": {"lambda_values": [20.0, 25.0], "theta_values": [0.05, 0.7]},
        }
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "res"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        rec = json.loads((out / "resonances.json").read_text())[0]
        report = rec["stability"]
        assert report["plateau"] is False
        grid = report["grid"]
        assert [(p["lambda"], p["theta"]) for p in grid] == [(20.0, 0.7), (25.0, 0.7), (20.0, 0.05)]
        assert all(p["converged"] for p in grid)
        assert (grid[0]["e_r"], grid[0]["gamma"]) == (rec["e_r"], rec["gamma"])
        first, second, last = (complex(p["e_r"], -p["gamma"] / 2) for p in grid)
        assert abs(second - first) <= 1e-8
        assert abs(last - first) > 1e-8
        assert max(abs(last - first), abs(last - second)) == pytest.approx(
            report["max_deviation"]
        )

    # Without a stability section the grid is scan's 3 x 3 (lambda, theta)
    # grid around the channel: the README's genuine pole holds on all nine
    # points, and an artifact that a 1-point grid called a plateau moves
    # as soon as lambda does.
    @pytest.mark.parametrize(
        "guess, plateau",
        [((3.43, -0.01), True), ((1.6604388954, -9.477618979), False)],
        ids=["genuine", "artifact"],
    )
    def test_omitted_grid_is_the_scan_grid(self, tmp_path, guess, plateau):
        data = _readme_config()
        assert "stability" not in data
        data["scan"]["guess"] = {"re": guess[0], "im": guess[1]}
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "res"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        (rec,) = json.loads((out / "resonances.json").read_text())
        assert rec["converged"] is True
        report = rec["stability"]
        assert report["plateau"] is plateau
        if plateau:
            assert len(report["grid"]) == 9
            assert report["max_deviation"] <= 1e-8
        else:
            assert len(report["grid"]) >= 2
            assert report["max_deviation"] > 1e-8

    def test_readme_pole_lists_full_grid(self, tmp_path):
        data = {
            **FIND,
            "channel": {**FIND["channel"], "n_basis": 200},
            "stability": {"lambda_values": [10.0, 20.0, 40.0], "theta_values": [0.6, 0.7, 0.8]},
        }
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "res"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "resonances.json").read_text())[0]["stability"]
        assert report["plateau"] is True
        assert len(report["grid"]) == 9

    def test_real_pole_at_theta_zero_has_unsigned_zero_gamma(self, tmp_path):
        # V = 0 at theta = 0: the hydrogenic ground state E = -1/2 (Z = -1)
        # is real, Im E = +0.0, so gamma = -2 Im E is -0.0 before printing
        data = {
            "channel": {"l": 0, "n_basis": 20, "scale": 2.0, "theta": 0.0},
            "scan": {"guess": {"re": -0.49, "im": 0.0}, "z_targets": [-1.0]},
            "stability": {"lambda_values": [2.0, 2.5], "theta_values": [0.0]},
        }
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "res"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "resonances.json").read_text()
        assert "-0.0" not in text
        (rec,) = json.loads(text)
        assert rec["e_r"] == -0.5 and rec["stability"]["plateau"] is True
        gammas = [rec["gamma"]] + [p["gamma"] for p in rec["stability"]["grid"]]
        assert len(gammas) == 3
        assert all(g == 0.0 and np.copysign(1.0, g) == 1.0 for g in gammas)

    def test_pole_exact_at_a_grid_point_is_a_plateau(self, tmp_path):
        # V = 0, l = 1, lambda = 1: E = -1/8 is the n = 2 state of Z = -1
        # and the n = 4 state of Z = -2. At the grid point lambda = 1/2,
        # which is 2 kappa of Z = -1's state, M(E) - Z_t is exactly singular
        # at that pole, so its re-refinement starts at a pole exact to
        # working precision
        data = {
            "potential": [],
            "channel": {"l": 1, "n_basis": 60, "scale": 1.0, "theta": 0.0},
            "scan": {"guess": {"re": -0.1255, "im": 0.0}, "z_targets": [-1.0, -2.0]},
        }
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "res"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        recs = json.loads((out / "resonances.json").read_text())
        assert [rec["z_target"] for rec in recs] == [-2.0, -1.0]
        for rec in recs:
            assert rec["converged"] is True and rec["e_r"] == pytest.approx(-0.125, abs=1e-12)
            report = rec["stability"]
            assert report["plateau"] is True
            assert len(report["grid"]) == 6  # 3 lambdas x theta in {0, 0.05}
            assert all(point["converged"] for point in report["grid"])


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["eigs", "--config", str(tmp_path / "absent.yaml")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path):
        data = {**HYDROGEN, "mystery": 1}
        cfg = _write_cfg(tmp_path, data)
        assert main(["eigs", "--config", cfg]) == 2

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("channel: [unclosed", encoding="utf-8")
        assert main(["eigs", "--config", str(path)]) == 2

    def test_solver_failure(self, tmp_path, capsys):
        data = {
            "channel": HYDROGEN["channel"],
            "scan": {"energy": {"re": float("inf"), "im": 0.0}},
        }
        cfg = _write_cfg(tmp_path, data)
        assert main(["eigs", "--config", cfg]) == 3
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("find", ["--threads", "2"]),
            ("find", ["--svg"]),
            ("scan", ["--threads", "2"]),
            ("scan", ["--svg"]),
            ("sweep", ["--threads", "2"]),
        ],
        ids=["flag0", "flag1", "scan-threads", "scan-svg", "sweep-threads"],
    )
    def test_flag_rejected_where_unused(self, tmp_path, command, flag):
        cfg = _write_cfg(tmp_path, FIND)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *flag])
        assert exc.value.code == 2

    def test_nonfinite_grid_is_config_error(self, tmp_path, capsys):
        data = {**SWEEP, "scan": {"grid": {**SWEEP["scan"]["grid"], "im_part": float("nan")}}}
        cfg = _write_cfg(tmp_path, data)
        assert ".nan" in (tmp_path / "run.yaml").read_text()
        assert main(["sweep", "--config", cfg]) == 2
        assert "scan.grid" in capsys.readouterr().err

    def test_nonfinite_im_schedule_is_config_error(self, tmp_path, capsys):
        scan = {**SWEEP["scan"], "z_targets": [0.0], "im_schedule": [float("nan")]}
        data = {**SWEEP, "scan": scan}
        cfg = _write_cfg(tmp_path, data)
        assert ".nan" in (tmp_path / "run.yaml").read_text()
        assert main(["scan", "--config", cfg]) == 2
        assert "scan.im_schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("key", NON_NUMERIC)
    def test_non_numeric_value_is_config_error(self, tmp_path, capsys, key):
        data = {**SWEEP, "scan": {**SWEEP["scan"], "z_targets": [0.0]}}
        section, name = key.split(".")
        data[section] = {**data.get(section, {}), name: NON_NUMERIC[key]}
        cfg = _write_cfg(tmp_path, data)
        assert main(["scan", "--config", cfg]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("case", OUT_OF_RANGE)
    def test_out_of_range_value_is_config_error(self, tmp_path, capsys, case):
        named, sections = OUT_OF_RANGE[case]
        cfg = _write_cfg(tmp_path, {**FIND, **sections})
        assert main(["stability", "--config", cfg]) == 2
        assert named in capsys.readouterr().err

    def test_non_mapping_section_exits_2_without_traceback(self, tmp_path):
        proc = _run_cli("table", _write_cfg(tmp_path, {**FIND, "scan": 5}))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["configuration error: scan must be a mapping, got 5"]

    def test_unaddressable_basis_exits_2_without_traceback(self, tmp_path):
        # 16 N^2 bytes past the largest intp: rejected when read, not by numpy
        data = {**HYDROGEN, "channel": {**HYDROGEN["channel"], "n_basis": 1.0e30}}
        cfg = _write_cfg(tmp_path, data)
        assert "n_basis: 1.0e+30" in (tmp_path / "run.yaml").read_text()
        proc = _run_cli("eigs", cfg)
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        assert line.startswith("configuration error: channel: n_basis = 10000000000000000198")
        assert "exceeds 759250124" in line

    @pytest.mark.parametrize("command", ["eigs", "find", "scan", "sweep"])
    def test_overflowing_potential_exits_3_with_one_line(self, tmp_path, command):
        proc = _run_cli(command, _write_cfg(tmp_path, OVERFLOWING))
        assert proc.returncode == 3
        (line,) = proc.stderr.splitlines()
        assert line.startswith("solver failure: the potential overflows on the rotated ray")
        assert "Warning" not in proc.stderr

    def test_table_tolerance_failure(self, tmp_path, capsys):
        data = {
            "channel": {"l": 0, "n_basis": 200, "scale": 20.0, "theta": 0.7},
            "table": {"tables": ["table1"], "tolerance": 0.0},
        }
        cfg = _write_cfg(tmp_path, data)
        assert main(["table", "--config", cfg]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines() if "FAIL" in line]
        assert len(fails) == 6
        # every value at the table's fixed 10 decimals
        assert all(re.search(r"\(\d+\.\d{10}, \d+\.\d{10}\) got \(\d+\.\d{10}, \d+\.\d{10}\)$", line)
                   for line in fails)


class TestTable:
    def test_one_assembly_per_channel_across_tables(self, tmp_path, monkeypatch):
        built = []

        def counting(cfg, model):
            built.append(cfg.l)
            return RotatedHamiltonian(cfg, model)

        monkeypatch.setattr(resonance, "RotatedHamiltonian", counting)
        data = {
            "channel": {"l": 0, "n_basis": 200, "scale": 20.0, "theta": 0.7},
            "table": {"tables": ["table1", "table2_spot"]},
        }
        cfg = _write_cfg(tmp_path, data)
        assert main(["table", "--config", cfg, "--out", str(tmp_path / "t")]) == 0
        assert sorted(built) == [0, 1, 2]

    def test_output_matches_the_golden_file(self, tmp_path):
        # the README config with both built-in tables; a change in
        # arithmetic may move a table energy by rounding noise (about 1e-14)
        # but never a printed digit, so this file changes only with an
        # intended change of the output
        data = {**_readme_config(), "table": {"tables": ["table1", "table2_spot"]}}
        out = tmp_path / "t"
        assert main(["table", "--config", _write_cfg(tmp_path, data), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "data" / "table_readme.txt"
        assert (out / "table.txt").read_bytes() == golden.read_bytes()


class TestSharedAssembly:
    def _count_assemblies(self, monkeypatch):
        built = []

        def counting(cfg, model):
            built.append((cfg.scale, cfg.theta, cfg.n_basis))
            return RotatedHamiltonian(cfg, model)

        monkeypatch.setattr(resonance, "RotatedHamiltonian", counting)
        return built

    def test_find_assembles_once_for_all_targets(self, tmp_path, monkeypatch):
        built = self._count_assemblies(monkeypatch)
        cfg = _write_cfg(tmp_path, {**FIND, "scan": {**FIND["scan"], "z_targets": [0.0, 1.0]}})
        assert main(["find", "--config", cfg, "--out", str(tmp_path / "res")]) == 0
        assert built == [(20.0, 0.7, 150)]

    def test_stability_assembles_each_grid_point_once(self, tmp_path, monkeypatch):
        # both targets converge, and the genuine Z = 0 pole visits every point;
        # the channel's own point (20, 0.7) is the cached assembly alone,
        # since there each pole is its own grid entry
        built = self._count_assemblies(monkeypatch)
        data = {
            **FIND,
            "channel": {**FIND["channel"], "n_basis": 60},
            "scan": {**FIND["scan"], "z_targets": [0.0, 1.0]},
            "stability": {"lambda_values": [20.0, 25.0], "theta_values": [0.6, 0.7]},
        }
        cfg = _write_cfg(tmp_path, data)
        out = tmp_path / "res"
        assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
        records = json.loads((out / "resonances.json").read_text())
        assert [r["converged"] for r in records] == [True, True]
        assert built == [(20.0, 0.7, 60), (25.0, 0.7, 60), (20.0, 0.6, 60), (25.0, 0.6, 60)]


# The thread count of every loaded OpenBLAS at each LDL^T factorization of
# a `find` run (config argv[1], output directory argv[2]) in which the ILP64
# lookup finds nothing, so scipy's OpenBLAS, loaded only for that fallback,
# factors. The thread controls still see every loaded OpenBLAS.
_PIN_UNDER_THE_FALLBACK = """
import json, os, sys
os.environ["OPENBLAS_NUM_THREADS"] = "2"  # read when each OpenBLAS loads
from chargeplane import lapack
from chargeplane.cli import main
lapack._ilp64 = lambda: None
factor, seen = lapack._SciPy.factor, []
def recording(self, a):
    seen.append([get() for get, _ in lapack._thread_controls()])
    return factor(self, a)
lapack._SciPy.factor = recording
assert main(["find", "--config", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps(seen))
"""

# Exit codes of `eigs` and `find` (configs argv[1] and argv[2]) where numpy
# exports none of the ILP64 symbols and scipy.linalg cannot be imported.
_NO_BACKEND = """
import sys
sys.modules["scipy.linalg"] = None
from chargeplane import lapack
from chargeplane.cli import main
lapack._ilp64 = lambda: None
out = sys.argv[3]
print(main(["eigs", "--config", sys.argv[1], "--out", out]),
      main(["find", "--config", sys.argv[2], "--out", out]))
"""


class TestBlasPin:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS runs 1 thread on 1 CPU")
    def test_fallback_library_is_pinned_too(self, tmp_path, fresh_python):
        cfg = _write_cfg(tmp_path, FIND)
        seen = json.loads(fresh_python(_PIN_UNDER_THE_FALLBACK, cfg, tmp_path / "res"))
        assert seen and all(threads == [1] * len(threads) for threads in seen), seen

    def test_no_backend_fails_only_refinement(self, tmp_path, fresh_python):
        eigs, find = _write_cfg(tmp_path, HYDROGEN, "eigs.yaml"), _write_cfg(tmp_path, FIND)
        out = fresh_python(_NO_BACKEND, eigs, find, tmp_path / "res")
        assert out.split() == [str(cli.EXIT_OK), str(cli.EXIT_SOLVER)]
        assert (tmp_path / "res" / "eigenvalues.csv").is_file()

    def test_one_thread_inside_main_and_restored_after(self, tmp_path, monkeypatch):
        controls = lapack._thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS loaded in this process")
        saved = [get() for get, _ in controls]
        seen = []

        def recording(cfg, args):
            seen.append([get() for get, _ in controls])
            return cli.EXIT_OK

        monkeypatch.setitem(cli._COMMANDS, "eigs", (recording, cli._COMMANDS["eigs"][1]))
        try:
            for _, set_ in controls:
                set_(2)
            outside = [get() for get, _ in controls]
            assert main(["eigs", "--config", _write_cfg(tmp_path, HYDROGEN)]) == 0
            after = [get() for get, _ in controls]
        finally:
            for (_, set_), threads in zip(controls, saved):
                set_(threads)
        assert seen == [[1] * len(controls)]
        assert after == outside
