"""Serialized outputs: eigenvalue listings, trajectory CSV, resonance JSON,
and SVG trajectory plots.

All numbers are printed with 12 significant digits and deterministic
rounding, so re-running a command with the same config yields byte-identical
files. The SVG is plain text with one polyline per branch; plotting is
presentation only and never feeds back into computation.
"""

from __future__ import annotations

import json

import numpy as np

SIG_DIGITS = 12
SVG_WIDTH, SVG_HEIGHT = 800, 600  # pixels


def fmt(x) -> str:
    """Deterministic 12-significant-digit decimal formatting."""
    return f"{float(x):.{SIG_DIGITS}g}"


def _round_sig(x):
    # + 0.0 turns -0.0 into 0.0: at theta = 0 a real pole's Im E is +0.0,
    # and its gamma = -2 Im E would otherwise print as -0.0
    return None if x is None else float(fmt(x)) + 0.0


def eigenvalues_to_lines(values) -> str:
    """Sorted (Re Z, Im Z) pairs, one CSV line each, with header."""
    lines = ["z_re,z_im"]
    for z in values:
        lines.append(f"{fmt(z.real)},{fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def trajectories_to_csv(trajectories) -> str:
    """CSV with columns branch_id,e_re,e_im,z_re,z_im, sorted by branch then E."""
    lines = ["branch_id,e_re,e_im,z_re,z_im"]
    for traj in trajectories:
        for e, z in zip(traj.energies, traj.z_values):
            lines.append(
                f"{traj.branch_id},{fmt(e.real)},{fmt(e.imag)},{fmt(z.real)},{fmt(z.imag)}"
            )
    return "\n".join(lines) + "\n"


def _stability_to_dict(report):
    grid = []
    for lam, theta, n, energy, converged in report.entries:
        entry = {"lambda": _round_sig(lam), "theta": _round_sig(theta), "n": n,
                 "converged": bool(converged)}
        if energy is not None:
            entry["e_r"] = _round_sig(energy.real)
            entry["gamma"] = _round_sig(-2 * energy.imag)
        grid.append(entry)
    return {
        "max_deviation": _round_sig(report.max_deviation),
        "plateau": bool(report.plateau),
        "grid": grid,
    }


def resonances_to_json(resonances) -> str:
    """JSON array of resonance records with optional stability reports."""
    records = []
    for res in resonances:
        rec = {
            "z_target": _round_sig(res.z_target),
            "l": res.l,
            "e_r": _round_sig(res.e_r),
            "gamma": _round_sig(res.gamma),
            "converged": bool(res.converged),
        }
        if res.stability is not None:
            rec["stability"] = _stability_to_dict(res.stability)
        records.append(rec)
    return json.dumps(records, indent=2) + "\n"


def trajectories_to_svg(trajectories) -> str:
    """Standalone SVG of SVG_WIDTH x SVG_HEIGHT pixels: one polyline per
    branch, a real-axis rule, and tick marks at integer Z."""
    all_z = np.concatenate([t.z_values for t in trajectories])
    x_min, x_max = float(all_z.real.min()), float(all_z.real.max())
    y_min, y_max = float(all_z.imag.min()), float(all_z.imag.max())
    pad_x = 0.05 * (x_max - x_min or 1.0)
    pad_y = 0.05 * (y_max - y_min or 1.0)
    x_min -= pad_x
    x_max += pad_x
    y_min -= pad_y
    y_max += pad_y

    def px(x):
        return (x - x_min) / (x_max - x_min) * SVG_WIDTH

    def py(y):
        return SVG_HEIGHT - (y - y_min) / (y_max - y_min) * SVG_HEIGHT

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#17becf")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    if y_min < 0 < y_max:
        y0 = py(0.0)
        parts.append(
            f'<line x1="0" y1="{y0:.2f}" x2="{SVG_WIDTH}" y2="{y0:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        for z_tick in range(int(np.ceil(x_min)), int(np.floor(x_max)) + 1):
            xt = px(float(z_tick))
            parts.append(
                f'<line x1="{xt:.2f}" y1="{y0 - 4:.2f}" x2="{xt:.2f}" y2="{y0 + 4:.2f}" '
                'stroke="black" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{xt:.2f}" y="{y0 + 16:.2f}" font-size="10" '
                f'text-anchor="middle">{z_tick}</text>'
            )
    for traj in trajectories:
        pts = " ".join(
            f"{px(z.real):.2f},{py(z.imag):.2f}" for z in traj.z_values
        )
        color = palette[traj.branch_id % len(palette)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
