"""Command-line entry points.

Subcommands: eigs, sweep, find, scan, stability, table. Physics parameters
come from the YAML config (--config); flags cover only the output path and
plot emission (--svg, on sweep only). scan lists the poles of each target
charge from one eigensolve (`resonance.poles`: the pencil (S - Z_t, -D),
reduced by the bidiagonal Cholesky factor of D's real J matrix to one
complex-symmetric standard problem), refines those that every theta of the
default grid (`resonance.stability_reports`) exposes and stability-checks
them over that grid, whatever the `stability` section says; stability
checks over that section's grid, each omitted list taking its default.
sweep traces the charge trajectories that picture them. `main` runs every
command with BLAS at one thread (`lapack.one_thread`), so outputs do not
depend on the host's BLAS threading. Exit codes: 0 success, 1 physics
tolerance failure, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import sys
from pathlib import Path

from . import lapack
from .config import RunConfig, load_config
from .eigensolver import eigenvalues
from .errors import ChargePlaneError, ConfigError, EigensolverError
from .output import (
    eigenvalues_to_lines,
    resonances_to_json,
    trajectories_to_csv,
    trajectories_to_svg,
)
from .reference import PRINT_DECIMALS, format_table, run_table
from .resonance import (
    auto_search,
    outside_exposure_window,
    refine_resonance,
    shared_hamiltonian,
    stability_reports,
)
from .trajectory import sweep

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _write(out_dir: str | None, name: str, text: str):
    if out_dir is None:
        sys.stdout.write(text)
        return
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    (path / name).write_text(text, encoding="utf-8", newline="\n")


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"this command requires {what} in the config")
    return value


def _warn_unexposed(results, theta: float):
    """One stderr line per converged pole outside the exposure window."""
    for res in results:
        if res.converged and outside_exposure_window(res.energy, theta):
            print(
                f"warning: pole E = {res.energy:.6g} (Z = {res.z_target:g}) has "
                f"|arg E| = {abs(cmath.phase(res.energy)):.3f} >= 2 theta = {2 * theta:.3g}, "
                "outside the exposure window: a discretization artifact, not a resonance",
                file=sys.stderr,
            )


def cmd_eigs(cfg: RunConfig, args) -> int:
    energy = _require(cfg.scan.energy, "scan.energy")
    ham = shared_hamiltonian(cfg.channel, cfg.potential)
    values = eigenvalues(ham.matrix(energy))
    _write(args.out, "eigenvalues.csv", eigenvalues_to_lines(values))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args) -> int:
    grid = _require(cfg.scan.grid, "scan.grid")
    trajectories = sweep(cfg.channel, cfg.potential, grid)
    _write(args.out, "trajectories.csv", trajectories_to_csv(trajectories))
    if args.svg:
        _write(args.out, "trajectories.svg", trajectories_to_svg(trajectories))
    return EXIT_OK


def _refine_targets(cfg: RunConfig) -> list:
    """scan.guess refined at every scan.z_targets charge, all on one assembly."""
    guess = _require(cfg.scan.guess, "scan.guess")
    if not cfg.scan.z_targets:
        raise ConfigError("this command requires scan.z_targets in the config")
    return [
        refine_resonance(guess, target, cfg.channel, cfg.potential)
        for target in cfg.scan.z_targets
    ]


def _write_refined(results, cfg: RunConfig, args) -> int:
    results.sort(key=lambda r: (r.z_target, r.e_r))
    _write(args.out, "resonances.json", resonances_to_json(results))
    _warn_unexposed(results, cfg.channel.theta)
    return EXIT_OK


def cmd_find(cfg: RunConfig, args) -> int:
    return _write_refined(_refine_targets(cfg), cfg, args)


def cmd_scan(cfg: RunConfig, args) -> int:
    grid = _require(cfg.scan.grid, "scan.grid")
    results = auto_search(
        cfg.channel,
        cfg.potential,
        cfg.scan.z_targets,
        im_schedule=cfg.scan.im_schedule,
        re_range=(grid.re_start, grid.re_end),
    )
    _write(args.out, "resonances.json", resonances_to_json(results))
    return EXIT_OK


def cmd_stability(cfg: RunConfig, args) -> int:
    results = _refine_targets(cfg)
    st = cfg.stability
    grid = (st.lambda_values, st.theta_values, st.n_values)
    found = [res for res in results if res.converged]
    reports = iter(stability_reports(found, cfg.channel, cfg.potential, *grid, st.tolerance))
    results = [
        dataclasses.replace(res, stability=next(reports)) if res.converged else res
        for res in results
    ]
    return _write_refined(results, cfg, args)


def cmd_table(cfg: RunConfig, args) -> int:
    status = EXIT_OK
    chunks = []
    for table in cfg.table.tables:
        rows = run_table(table, tolerance=cfg.table.tolerance)
        chunks.append(f"== {table} ==\n" + format_table(rows))
        failing = [r for r in rows if not r.ok]
        if failing:
            status = EXIT_TOLERANCE
            d = PRINT_DECIMALS
            for r in failing:
                chunks.append(
                    f"FAIL: Z={r.z:g} l={r.l} expected ({r.ref_e_r:.{d}f}, {r.ref_gamma:.{d}f}) "
                    f"got ({r.computed_e_r:.{d}f}, {r.computed_gamma:.{d}f})\n"
                )
    _write(args.out, "table.txt", "".join(chunks))
    return status


_COMMANDS = {
    "eigs": (cmd_eigs, "eigenvalue listing at a single energy"),
    "sweep": (cmd_sweep, "trajectory CSV (and optional SVG) over an energy grid"),
    "find": (cmd_find, "refine a resonance from a guess"),
    "scan": (cmd_scan, "refine and stability-check every pole in the scan box"),
    "stability": (cmd_stability, "refine then verify a stability plateau"),
    "table": (cmd_table, "reproduce the built-in benchmark tables"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargeplane",
        description="Locate potential-scattering resonances via eigenvalue "
        "trajectories in the complex charge plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--out", default=None, help="output directory (default: stdout)")
        if name == "sweep":
            p.add_argument("--svg", action="store_true", help="also emit an SVG plot")
    return parser


def main(argv=None) -> int:
    """Run one command with BLAS at one thread."""
    with lapack.one_thread():
        return _run(argv)


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return _COMMANDS[args.command][0](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EigensolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ChargePlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
