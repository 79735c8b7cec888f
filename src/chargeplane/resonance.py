"""Resonance location: pole listing from the affine pencil, complex-energy
Newton refinement, and stability verification against the computational
parameters.

A resonance at target charge Z is an energy E where an eigenvalue branch
Z_n(E) of the rotated charge operator M(E) = S + E*D equals Z. Since M is
affine in E, every such E is a generalized eigenvalue of the pencil
(S - Z, -D), which the operator reduces to one standard complex-symmetric
matrix (`RotatedHamiltonian.reduced`); one dense eigensolve of that lists
them all (`poles`). Each seeds a Newton iteration on E, and accepted poles
must sit on a plateau under variations of (lambda, theta, N), over the grid
and tolerance that `stability_reports` defaults to when given none.
Refinement refactors only when a solve fails to cut the backward error below
REFACTOR_RATIO (0.3) times the last; `Resonance.iterations` counts solves.

Refinement, `auto_search` and `trajectory.sweep` share one assembly per
(channel, potential) through `shared_hamiltonian`. A stability pass visits
the channel's own grid point first and takes the converged pole itself as
its entry, with no assembly or refinement; every other grid point
assembles its own operator, so a stability pass never fills that cache.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import lapack
from .basis import ChannelConfig
from .eigensolver import eigenvalues
from .errors import ChargePlaneError, EigensolverError
from .hamiltonian import RotatedHamiltonian
from .potential import PotentialModel

RESIDUAL_TOL = 1e-10
MAX_ITER = 50
REFACTOR_RATIO = 0.3
DEDUP_TOL = 1e-6
ASSEMBLY_CACHE_SIZE = 4
STABILITY_TOL = 1e-8


@dataclass(frozen=True)
class StabilityReport:
    """Re-refinement of one resonance over a (lambda, theta, N) grid.

    The grid is the set of distinct (lambda, theta, N) points: a repeated
    value is visited once. Entries are in visiting order: when the grid
    holds the channel's own point (cfg.scale, cfg.theta, cfg.n_basis), that
    point comes first with the pole's own energy, then the other points at
    cfg.theta, then the rest, each group in itertools.product order; any
    other grid is visited in product order. A plateau report lists every
    grid point, and a grid of fewer than 2 points gives no plateau: one
    point varies nothing. Any other report lists the visited points up to
    and including the one that settled its verdict: the first that failed
    to converge, or whose energy lay more than the tolerance from an
    earlier converged one (a 1-point grid's report lists its point).
    max_deviation is the maximum pairwise |dE| over the converged points
    listed, None for fewer than 2 (nothing was compared). A non-plateau
    report's prefix, and so its max_deviation, depends on the order of the
    grid's lambda, theta and N values; only a plateau report's, the spread
    over the whole grid, is a property of the pole alone.
    """

    entries: tuple = ()  # (lambda, theta, N, energy, converged) tuples
    max_deviation: float | None = None
    plateau: bool = False


@dataclass(frozen=True)
class Resonance:
    """A refined pole: E = E_r - i*Gamma/2 at integer target charge."""

    z_target: float
    l: int
    energy: complex
    converged: bool
    iterations: int = 0  # solves, each with its own Rayleigh quotient
    residual: float = np.inf  # backward error ||(M(E) - Z_t) x|| at ||x|| = 1
    stability: StabilityReport | None = None

    @property
    def e_r(self) -> float:
        return self.energy.real

    @property
    def gamma(self) -> float:
        return -2.0 * self.energy.imag


@lru_cache(maxsize=ASSEMBLY_CACHE_SIZE)
def shared_hamiltonian(cfg: ChannelConfig, model: PotentialModel) -> RotatedHamiltonian:
    """The RotatedHamiltonian of (cfg, model), assembled once per process for
    the ASSEMBLY_CACHE_SIZE most recent keys; its arrays are read-only."""
    return RotatedHamiltonian(cfg, model)


def outside_exposure_window(energy: complex, theta: float) -> bool:
    """True for a resonance-like pole (Re E > 0, Im E < 0) with |arg E| >= 2 theta.

    Rotation by theta exposes only poles with theta > |arg E| / 2, so a pole
    beyond that converges as a discretization artifact, not a resonance.
    Poles with Re E <= 0 are not judged: a bound state's Im E is zero up to
    discretization noise of either sign, which would put it at |arg E| = pi.
    """
    return energy.real > 0 and energy.imag < 0 and abs(np.angle(energy)) >= 2 * theta


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm of a complex vector, bit for bit, without its argument
    handling, which costs as much as the sums at refinement's orders."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _ldlt_solve(factors: lapack.Factors, rhs: np.ndarray) -> np.ndarray:
    """rhs, a writable complex vector, overwritten with the unit-norm solution
    of one system, given `lapack.ldlt`'s factors."""
    factors.solve(rhs)
    norm = _norm(rhs)
    if not math.isfinite(norm):
        raise EigensolverError(f"non-finite solve at order {len(rhs)}")
    rhs /= norm
    return rhs


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
    pencil (S - Z_t) + E*D. Each step is one inverse-iteration solve,
    x <- F^-1 b (b the ones vector first, D x after), then that quotient E
    and the backward error ||(M(E) - Z_t) x|| at ||x|| = 1, in place of a
    full eigendecomposition. F holds the LDL^T factors of M(guess) - Z_t
    until a step's error fails to fall below REFACTOR_RATIO times the
    previous step's (the first step is never compared); then M(E) - Z_t is
    refactored at that step's E. So a shift that still converges fast costs
    no factorization, and the first solves select the branch whose Z is
    nearest Z_t at the guess. `iterations` counts the solves.

    LDL^T (Bunch-Kaufman, `lapack.ldlt`) reads one triangle, so
    `ham.matrix` must be exactly symmetric. Every M(E) - Z_t, at the guess
    as at an iterate, is factored the same way: an exactly zero pivot means
    E is a pole to working precision, and `lapack.ldlt` repairs it, so the
    next solve returns the null vector. A step also costs a dense
    product S x and the O(N) band product D x, which give both the quotient
    and the residual (M(E) - Z_t) x = (S x - Z_t x) + E D x. The iteration
    stops when that backward error is at most RESIDUAL_TOL; after MAX_ITER
    steps without that, non-convergence is reported in-band
    (converged = False). Raises EigensolverError on a non-finite guess or
    target charge, or a non-finite solve. `ham`, if given, must assemble
    (cfg, model); without it the operator is shared_hamiltonian(cfg, model).
    """
    if not np.isfinite(guess):
        raise EigensolverError(f"non-finite energy guess {guess}")
    if not np.isfinite(z_target):
        raise EigensolverError(f"non-finite target charge {z_target}")
    if ham is None:
        ham = shared_hamiltonian(cfg, model)
    # The one operator-sized array of a refinement: every M(E) - Z_t is
    # written and factored there, and (S - Z_t) x is taken as S x - Z_t x.
    # With an N x N temporary per step or per refinement, glibc returned it
    # on free and page-faulted it in again (280-440 faults at N = 200).
    mat = ham.matrix(guess, z_target)
    factors = lapack.ldlt(mat)
    rhs, previous = np.ones(cfg.n_basis, dtype=complex), np.inf
    for iterations in range(1, MAX_ITER + 1):
        x = _ldlt_solve(factors, rhs)
        sx = ham.apply_static(x) - z_target * x
        rhs = ham.apply_derivative(x)
        energy = complex(-(x @ sx) / (x @ rhs))
        residual = _norm(sx + energy * rhs)
        if residual <= RESIDUAL_TOL or iterations == MAX_ITER:
            break
        if not residual < REFACTOR_RATIO * previous:  # true for a NaN error too
            factors = lapack.ldlt(ham.matrix(energy, z_target, out=mat))
        previous = residual
    return Resonance(z_target, cfg.l, energy, residual <= RESIDUAL_TOL, iterations, residual)


def poles(ham: RotatedHamiltonian, z_target: float) -> np.ndarray:
    """Every energy E at which a charge of M(E) = S + E*D equals z_target.

    These are the generalized eigenvalues of the pencil (S - Z_t, -D),
    sorted by (Re, Im). No QZ is needed: `ham.reduced(z_target)` is the
    pencil reduced to one complex-symmetric matrix of order N, whose
    eigenvalues are -E / lambda', all finite. Raises EigensolverError on a
    non-finite z_target, or where `eigensolver.eigenvalues` fails on that
    matrix.
    """
    if not np.isfinite(z_target):
        raise EigensolverError(f"non-finite target charge {z_target}")
    values = -ham.cfg.rotated_scale * eigenvalues(ham.reduced(z_target))
    return values[np.lexsort((values.imag, values.real))]


def _refine_at_point(found, cfg: ChannelConfig, model: PotentialModel) -> list[tuple]:
    """(energy, converged) of each resonance re-refined at one grid point, all
    on one fresh assembly, which is not cached and is freed with the point."""
    try:
        ham = RotatedHamiltonian(cfg, model)
    except EigensolverError:
        return [(None, False)] * len(found)
    outcomes = []
    for res in found:
        try:
            point = refine_resonance(res.energy, res.z_target, cfg, model, ham)
        except EigensolverError:
            outcomes.append((None, False))
        else:
            outcomes.append((point.energy, point.converged))
    return outcomes


def stability_reports(
    found, cfg, model, lambda_values=(), theta_values=(), n_values=(), tolerance=STABILITY_TOL
) -> list[StabilityReport]:
    """The StabilityReport of each resonance in `found` over one grid, with
    one assembly per grid point shared by all of them.

    The grid is the distinct points of lambda_values x theta_values x
    n_values, so a repeated value is visited once, and an empty list takes
    its default: lambda/2, lambda and 2 lambda; theta - 0.05, theta
    and theta + 0.05, each kept only inside [0, pi/2); and the channel's N.
    So with no lists the grid is the 3 x 3 (lambda, theta) grid around cfg
    that `auto_search` checks. Each resonance must be a converged pole of
    (cfg, model). The grid is visited in StabilityReport's order. At the
    channel's own point the entry is the pole itself,
    (lambda, theta, N, res.energy, res.converged): the same operator and
    the same converged energy, so nothing is assembled or refined there (an
    unconverged pole settles there, off the plateau). Every later point is
    then compared with the pole, and an artifact mostly settles at the
    next point. That point changes lambda alone, which slides an artifact
    along its own ray of the rotated continuum, so its refinement takes
    fewer iterations than at a point that also rotates the ray by changing
    theta.

    A resonance leaves the loop at the first grid point that settles its
    verdict: one whose refinement fails or does not converge, or whose
    energy lies more than tolerance from an earlier converged energy. No
    later point can restore a plateau after either, and every refinement
    starts from res.energy whatever the order, so the verdict is the full
    grid's in any order; only resonances still live are re-refined at later
    points. A resonance still live after the last point converged at every
    point with every pairwise |dE| within tolerance, so it is on a plateau
    when the grid has at least 2 points.
    """
    thetas = (cfg.theta - 0.05, cfg.theta, cfg.theta + 0.05)
    lambda_values = tuple(lambda_values) or (cfg.scale / 2, cfg.scale, 2 * cfg.scale)
    theta_values = tuple(theta_values) or tuple(t for t in thetas if 0 <= t < np.pi / 2)
    n_values = tuple(n_values) or (cfg.n_basis,)
    grid = list(dict.fromkeys(itertools.product(lambda_values, theta_values, n_values)))
    own = (cfg.scale, cfg.theta, cfg.n_basis)
    if own in grid:
        grid.sort(key=lambda point: (point != own, point[1] != cfg.theta))
    entries = [[] for _ in found]
    live = list(range(len(found)))
    oversample = cfg.quad_size - cfg.n_basis
    for lam, theta, n in grid:
        if not live:
            break
        if (lam, theta, n) == own:
            outcomes = [(found[i].energy, found[i].converged) for i in live]
        else:
            point_cfg = replace(cfg, scale=lam, theta=theta, n_basis=n, quad_size=n + oversample)
            outcomes = _refine_at_point([found[i] for i in live], point_cfg, model)
        for i, (energy, converged) in zip(list(live), outcomes):
            earlier = np.array([e for *_, e, c in entries[i] if c])
            entries[i].append((lam, theta, n, energy, converged))
            if not converged or np.any(np.abs(energy - earlier) > tolerance):
                live.remove(i)
    reports = []
    for i, rows in enumerate(entries):
        arr = np.array([energy for *_, energy, converged in rows if converged])
        max_dev = float(np.abs(arr[:, None] - arr).max()) if len(arr) > 1 else None
        reports.append(StabilityReport(tuple(rows), max_dev, i in live and len(grid) > 1))
    return reports


def stability_scan(
    res: Resonance,
    lambda_values,
    theta_values,
    n_values,
    cfg: ChannelConfig,
    model: PotentialModel,
    tolerance: float = STABILITY_TOL,
) -> StabilityReport:
    """Re-refine a resonance over a (lambda, theta, N) grid.

    `res` must be a converged pole of (cfg, model): at the channel's own
    grid point it stands for itself, unrefined. An empty list takes its
    default, as in `stability_reports`. The plateau flag requires a grid of
    at least 2 distinct points, every point to converge and the maximum
    pairwise |dE| to stay within tolerance. The scan stops at the first
    point that rules a plateau out, so a non-plateau report lists only the
    points visited up to that one (see StabilityReport for the visiting
    order).
    """
    return stability_reports([res], cfg, model, lambda_values, theta_values, n_values, tolerance)[0]


DEFAULT_IM_SCHEDULE = (-0.025, -0.1, -0.4, -1.6, -3.2, -6.4, -12.8, -25.6)


def auto_search(
    cfg: ChannelConfig,
    model: PotentialModel,
    z_targets,
    im_schedule=DEFAULT_IM_SCHEDULE,
    re_range=(0.0, 10.0),
    steps: int = 101,
    window: float = 1.0,
) -> list[Resonance]:
    """Refine every pole of each target charge in a box, de-duplicate.

    The candidates are the `poles` with Re E in re_range and
    min(im_schedule) <= Im E < 0 (an empty schedule is an empty box),
    except those outside the exposure window; each is polished by
    refine_resonance. Candidates that fail to refine are dropped; nothing
    here is fatal. Each pole gets its stability_reports report over the
    default grid, the 3 x 3 (lambda, theta) grid around cfg, at the default
    tolerance STABILITY_TOL: all poles share one assembly per grid point
    except cfg's own, where each pole is its own entry, and a pole leaves
    the grid at the point that settles its verdict, for an artifact mostly
    the first (lambda, cfg.theta) point after its own. `steps` and `window`
    have no effect; they are kept because configs and the benchmark's
    workloads pass them. Output is ordered by (z_target, E_r).
    """
    re_lo, re_hi = re_range
    if not np.all(np.isfinite([re_lo, re_hi, *im_schedule])):
        raise ChargePlaneError(
            f"search bounds must be finite, got re {list(re_range)}, im {list(im_schedule)}"
        )
    if not re_lo < re_hi:
        raise ChargePlaneError(f"search requires re_start < re_end, got [{re_lo}, {re_hi}]")
    if len(z_targets) == 0 or len(im_schedule) == 0:
        return []
    im_lo = min(im_schedule)
    ham = shared_hamiltonian(cfg, model)
    found: list[Resonance] = []
    for target in map(float, z_targets):
        for guess in poles(ham, target):
            if not (re_lo <= guess.real <= re_hi and im_lo <= guess.imag < 0):
                continue
            if outside_exposure_window(guess, cfg.theta):
                continue
            try:
                res = refine_resonance(guess, target, cfg, model, ham)
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
    reports = stability_reports(found, cfg, model)
    found = [replace(r, stability=report) for r, report in zip(found, reports)]
    found.sort(key=lambda r: (r.z_target, r.e_r))
    return found
