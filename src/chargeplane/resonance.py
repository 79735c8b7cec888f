"""Resonance location: crossing detection, complex-energy Newton refinement,
and stability verification against the computational parameters.

A resonance at target charge Z is an energy E where an eigenvalue branch
Z_n(E) of the rotated charge operator equals Z. Crossings of the real Z axis
found in trajectory sweeps seed a Newton iteration on E; accepted poles must
sit on a plateau under variations of (lambda, theta, N).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .basis import ChannelConfig
from .errors import EigensolverError
from .hamiltonian import RotatedHamiltonian
from .potential import PotentialModel
from .trajectory import EnergyGrid, Trajectory, sweep

RESIDUAL_TOL = 1e-10
MAX_ITER = 50
START_STEPS = 3
DEDUP_TOL = 1e-6


@dataclass(frozen=True)
class CrossingCandidate:
    """A bracketed real-axis crossing of one branch near a target charge."""

    branch_id: int
    e_lo: complex
    e_hi: complex
    z_at_crossing: float
    z_target: float
    fraction: float = 0.5

    @property
    def e_guess(self) -> complex:
        """Energy at the interpolated crossing point."""
        return self.e_lo + self.fraction * (self.e_hi - self.e_lo)


@dataclass(frozen=True)
class StabilityReport:
    """Re-refinement of one resonance over a (lambda, theta, N) grid."""

    entries: tuple = ()  # (lambda, theta, N, energy, converged) tuples
    max_deviation: float = 0.0
    plateau: bool = False


@dataclass(frozen=True)
class Resonance:
    """A refined pole: E = E_r - i*Gamma/2 at integer target charge."""

    z_target: float
    l: int
    energy: complex
    converged: bool
    iterations: int = 0
    residual: float = np.inf  # backward error ||(M(E) - Z_t) x|| at ||x|| = 1
    stability: StabilityReport | None = None

    @property
    def e_r(self) -> float:
        return self.energy.real

    @property
    def gamma(self) -> float:
        return -2.0 * self.energy.imag


def detect_crossings(
    trajectories: list[Trajectory],
    z_targets,
    window: float = 0.5,
) -> list[CrossingCandidate]:
    """Find sign changes of Im Z along each branch near the target charges.

    The crossing abscissa is linearly interpolated; a candidate is emitted
    for every target within `window` of it.
    """
    candidates = []
    for traj in trajectories:
        z = traj.z_values
        e = traj.energies
        im = z.imag
        for i in range(len(z) - 1):
            if im[i] * im[i + 1] >= 0:
                continue
            t = im[i] / (im[i] - im[i + 1])
            z_cross = float((z[i] + t * (z[i + 1] - z[i])).real)
            for target in z_targets:
                if abs(z_cross - target) <= window:
                    candidates.append(
                        CrossingCandidate(
                            branch_id=traj.branch_id,
                            e_lo=complex(e[i]),
                            e_hi=complex(e[i + 1]),
                            z_at_crossing=z_cross,
                            z_target=float(target),
                            fraction=float(t),
                        )
                    )
    return candidates


def refine_resonance(
    guess: complex,
    z_target: float,
    cfg: ChannelConfig,
    model: PotentialModel,
    ham: RotatedHamiltonian | None = None,
) -> Resonance:
    """Newton iteration on complex E driving the nearest eigenvalue to Z.

    With M(E) = S + E*D, the Newton step from an eigenpair (Z, x) of M(E)
    with the analytic slope dZ/dE = x.T D x / x.T x lands at
    E' = -x.T (S - Z_t) x / x.T D x, the c-product Rayleigh quotient of the
    pencil (S - Z_t) + E*D. So each step takes that quotient and updates x
    by one inverse-iteration solve, x <- (M(E) - Z_t)^-1 D x, in place of a
    full eigendecomposition. The start vector is a fixed vector after
    START_STEPS inverse-iteration solves with M(guess) - Z_t, which selects
    the branch whose Z is nearest Z_t at the guess.

    The iteration stops when the backward error ||(M(E) - Z_t) x|| with
    ||x|| = 1 is at most RESIDUAL_TOL; after MAX_ITER steps without that,
    non-convergence is reported in-band (converged = False). Raises
    EigensolverError on a non-finite guess or a non-finite solve.
    """
    if not np.isfinite(guess):
        raise EigensolverError(f"non-finite energy guess {guess}")
    if ham is None:
        ham = RotatedHamiltonian(cfg, model)
    shift = z_target * np.eye(cfg.n_basis)
    shifted = ham.matrix(0.0) - shift
    deriv_mat = ham.derivative

    def solve(lu, rhs):
        x = lu_solve(lu, rhs, check_finite=False)
        norm = np.linalg.norm(x)
        if not np.isfinite(norm):
            raise EigensolverError(f"non-finite solve at order {len(x)}", order=len(x))
        return x / norm

    lu = lu_factor(ham.matrix(guess) - shift, check_finite=False)
    x = np.ones(cfg.n_basis, dtype=complex)
    for _ in range(START_STEPS):
        x = solve(lu, x)
    for iterations in range(1, MAX_ITER + 1):
        dx = deriv_mat @ x
        energy = complex(-(x @ (shifted @ x)) / (x @ dx))
        mat = ham.matrix(energy) - shift
        residual = float(np.linalg.norm(mat @ x))
        if residual <= RESIDUAL_TOL:
            return Resonance(z_target, cfg.l, energy, True, iterations, residual)
        x = solve(lu_factor(mat, check_finite=False), dx)
    return Resonance(z_target, cfg.l, energy, False, MAX_ITER, residual)


def stability_scan(
    res: Resonance,
    lambda_values,
    theta_values,
    n_values,
    cfg: ChannelConfig,
    model: PotentialModel,
    tolerance: float = 1e-8,
) -> StabilityReport:
    """Re-refine a converged resonance over a (lambda, theta, N) grid.

    Reports the maximum pairwise |dE| over converged grid points; the plateau
    flag requires every point to converge and the deviation to stay within
    tolerance.
    """
    entries = []
    energies = []
    all_converged = True
    for lam, theta, n in itertools.product(lambda_values, theta_values, n_values):
        oversample = cfg.quad_size - cfg.n_basis
        point_cfg = replace(cfg, scale=lam, theta=theta, n_basis=n, quad_size=n + oversample)
        try:
            point = refine_resonance(res.energy, res.z_target, point_cfg, model)
        except EigensolverError:
            entries.append((lam, theta, n, None, False))
            all_converged = False
            continue
        entries.append((lam, theta, n, point.energy, point.converged))
        if point.converged:
            energies.append(point.energy)
        else:
            all_converged = False
    if len(energies) >= 2:
        arr = np.array(energies)
        max_dev = float(np.abs(arr[:, None] - arr[None, :]).max())
    else:
        max_dev = 0.0
    plateau = all_converged and bool(entries) and max_dev <= tolerance
    return StabilityReport(entries=tuple(entries), max_deviation=max_dev, plateau=plateau)


DEFAULT_IM_SCHEDULE = (-0.025, -0.1, -0.4, -1.6, -3.2, -6.4, -12.8, -25.6)


def _default_stability_grid(cfg: ChannelConfig):
    lams = (cfg.scale / 2, cfg.scale, 2 * cfg.scale)
    thetas = tuple(
        t for t in (cfg.theta - 0.05, cfg.theta, cfg.theta + 0.05) if 0 < t < np.pi / 2
    )
    return lams, thetas, (cfg.n_basis,)


def auto_search(
    cfg: ChannelConfig,
    model: PotentialModel,
    z_targets,
    im_schedule=DEFAULT_IM_SCHEDULE,
    re_range=(0.0, 10.0),
    steps: int = 101,
    window: float = 1.0,
    run_stability: bool = True,
    threads: int = 1,
) -> list[Resonance]:
    """Scan Im E over a schedule, refine every detected crossing, de-duplicate.

    Candidates that fail to refine are dropped; nothing here is fatal.
    Output is ordered by (z_target, E_r).
    """
    if not z_targets:
        return []
    ham = RotatedHamiltonian(cfg, model)
    found: list[Resonance] = []
    for im_part in im_schedule:
        grid = EnergyGrid(re_range[0], re_range[1], steps, im_part)
        trajectories = sweep(cfg, model, grid, threads=threads, ham=ham)
        for cand in detect_crossings(trajectories, z_targets, window):
            try:
                res = refine_resonance(cand.e_guess, cand.z_target, cfg, model, ham)
            except EigensolverError:
                continue
            if not res.converged:
                continue
            dup = any(
                r.z_target == res.z_target and abs(r.energy - res.energy) < DEDUP_TOL
                for r in found
            )
            if not dup:
                found.append(res)
    if run_stability:
        lams, thetas, ns = _default_stability_grid(cfg)
        found = [
            replace(r, stability=stability_scan(r, lams, thetas, ns, cfg, model))
            for r in found
        ]
    found.sort(key=lambda r: (r.z_target, r.e_r))
    return found
