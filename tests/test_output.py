"""Tests for CSV, JSON, and SVG serialization."""

import json

import numpy as np

from chargeplane.output import (
    eigenvalues_to_lines,
    fmt,
    resonances_to_json,
    trajectories_to_csv,
    trajectories_to_svg,
)
from chargeplane.resonance import Resonance, StabilityReport
from chargeplane.trajectory import Trajectory


def _trajs():
    e = np.array([1.0 - 0.5j, 2.0 - 0.5j, 3.0 - 0.5j])
    return [
        Trajectory(branch_id=0, energies=e, z_values=np.array([-1.0 - 0.2j, -0.9 + 0.1j, -0.8 + 0.3j])),
        Trajectory(branch_id=1, energies=e, z_values=np.array([0.5 + 1j, 0.6 + 1.1j, 0.7 + 1.2j])),
    ]


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt(np.pi) == "3.14159265359"
        assert fmt(1.0) == "1"
        assert fmt(-1.23456789012345e-7) == "-1.23456789012e-07"

    def test_eigenvalue_lines(self):
        text = eigenvalues_to_lines(np.array([1.5 - 0.25j, -2.0 + 0j]))
        assert text == "z_re,z_im\n1.5,-0.25\n-2,0\n"


class TestTrajectoryCsv:
    def test_header_and_rows(self):
        text = trajectories_to_csv(_trajs())
        lines = text.strip().split("\n")
        assert lines[0] == "branch_id,e_re,e_im,z_re,z_im"
        assert len(lines) == 7
        assert lines[1] == "0,1,-0.5,-1,-0.2"
        assert lines[4] == "1,1,-0.5,0.5,1"

    def test_deterministic(self):
        assert trajectories_to_csv(_trajs()) == trajectories_to_csv(_trajs())


class TestResonanceJson:
    def test_record_fields(self):
        res = Resonance(
            z_target=0.0,
            l=2,
            energy=3.426390331 - 0.0127744815j,
            converged=True,
            iterations=5,
            residual=1e-12,
        )
        records = json.loads(resonances_to_json([res]))
        assert records == [
            {
                "z_target": 0.0,
                "l": 2,
                "e_r": 3.426390331,
                "gamma": 0.025548963,
                "converged": True,
            }
        ]

    def test_stability_report_included(self):
        report = StabilityReport(
            entries=((20.0, 0.7, 100, 1.0 - 0.5j, True), (10.0, 0.7, 100, None, False)),
            max_deviation=3.2e-11,
            plateau=True,
        )
        res = Resonance(0.0, 0, 1.0 - 0.5j, True, stability=report)
        rec = json.loads(resonances_to_json([res]))[0]
        st = rec["stability"]
        assert st["plateau"] is True
        assert st["max_deviation"] == 3.2e-11
        assert len(st["grid"]) == 2
        assert st["grid"][0] == {
            "lambda": 20.0,
            "theta": 0.7,
            "n": 100,
            "converged": True,
            "e_r": 1.0,
            "gamma": 1.0,
        }
        assert "e_r" not in st["grid"][1]

    def test_unmeasured_spread_is_null(self):
        report = StabilityReport(entries=((20.0, 0.7, 100, 1.0 - 0.5j, True),))
        text = resonances_to_json([Resonance(0.0, 0, 1.0 - 0.5j, True, stability=report)])
        assert '"max_deviation": null' in text
        assert json.loads(text)[0]["stability"]["max_deviation"] is None


class TestSvg:
    def test_structure(self):
        svg = trajectories_to_svg(_trajs())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2
        # data straddles Im Z = 0, so the real-axis rule and the Z = 0 tick
        # must be drawn
        assert "<line" in svg
        assert ">0</text>" in svg

    def test_deterministic(self):
        assert trajectories_to_svg(_trajs()) == trajectories_to_svg(_trajs())
