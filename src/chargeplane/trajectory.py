"""Eigenvalue trajectories in the complex charge plane over an energy grid.

Each energy sample yields N eigenvalues whose ordering is solver-dependent,
so consecutive samples are stitched into continuous branches by greedy
nearest-pair matching. Eigensolves are independent per sample (phase 1);
matching is sequential over the ordered grid (phase 2), so the result is
identical at any degree of parallelism.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .basis import ChannelConfig
from .eigensolver import eigen_decompose
from .errors import ChargePlaneError, EigensolverError
from .hamiltonian import RotatedHamiltonian
from .potential import PotentialModel


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform grid Re E in [re_start, re_end] at fixed Im E."""

    re_start: float
    re_end: float
    steps: int
    im_part: float = 0.0

    def __post_init__(self):
        if self.steps < 2:
            raise ChargePlaneError(f"grid needs at least 2 steps, got {self.steps}")
        if not self.re_start < self.re_end:
            raise ChargePlaneError(
                f"grid requires re_start < re_end, got [{self.re_start}, {self.re_end}]"
            )

    def energies(self) -> np.ndarray:
        return np.linspace(self.re_start, self.re_end, self.steps) + 1j * self.im_part


@dataclass(frozen=True)
class Trajectory:
    """One continued eigenvalue branch: (E, Z) pairs over the grid."""

    branch_id: int
    energies: np.ndarray = field(repr=False)
    z_values: np.ndarray = field(repr=False)
    discontinuities: tuple[int, ...] = ()

    @property
    def max_abs_im(self) -> float:
        """Bound-state coincidence metadata: max |Im Z| over the sweep."""
        return float(np.abs(self.z_values.imag).max())


def match_step(prev, nxt, threshold: float | None = None):
    """Greedy minimum-distance assignment between two eigenvalue sets.

    Repeatedly pairs the globally closest unmatched (prev, next) eigenvalues.
    Returns (perm, flagged) where perm[i] is the index in nxt matched to
    prev[i] and flagged lists prev-indices whose pair distance exceeds the
    threshold (default 5x the median matched distance).
    """
    prev = np.asarray(prev, dtype=complex)
    nxt = np.asarray(nxt, dtype=complex)
    if prev.shape != nxt.shape:
        raise ChargePlaneError("match_step requires equal-length eigenvalue sets")
    n = len(prev)
    dist = np.abs(prev[:, None] - nxt[None, :])
    order = np.argsort(dist, axis=None, kind="stable")
    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)
    matched = 0
    pair_dist = np.empty(n)
    for flat in order:
        i, j = divmod(int(flat), n)
        if perm[i] >= 0 or used[j]:
            continue
        perm[i] = j
        used[j] = True
        pair_dist[i] = dist[i, j]
        matched += 1
        if matched == n:
            break
    if threshold is None:
        med = float(np.median(pair_dist))
        threshold = 5 * med if med > 0 else np.inf
    flagged = tuple(int(i) for i in np.nonzero(pair_dist > threshold)[0])
    return perm, flagged


def sweep(
    cfg: ChannelConfig,
    model: PotentialModel,
    grid: EnergyGrid,
    threads: int = 1,
    ham: RotatedHamiltonian | None = None,
) -> list[Trajectory]:
    """Trace all N eigenvalue branches over the energy grid.

    Branch ids follow the sorted eigenvalue order of the first sample.
    `ham` reuses a caller's assembly of the same (cfg, model).
    """
    if ham is None:
        ham = RotatedHamiltonian(cfg, model)
    energies = grid.energies()

    def solve(e):
        try:
            return eigen_decompose(ham.matrix(e)).values
        except EigensolverError as exc:
            raise EigensolverError(f"eigensolve failed at E = {e}: {exc}", exc.order) from exc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            eigensets = list(pool.map(solve, energies))
    else:
        eigensets = [solve(e) for e in energies]

    n = cfg.n_basis
    paths = np.empty((n, len(energies)), dtype=complex)
    paths[:, 0] = eigensets[0]
    disc: dict[int, list[int]] = {b: [] for b in range(n)}
    current = np.arange(n)  # branch b currently sits at index current[b]
    for step in range(1, len(energies)):
        perm, flagged = match_step(eigensets[step - 1], eigensets[step])
        flagged_set = set(flagged)
        for b in range(n):
            if current[b] in flagged_set:
                disc[b].append(step)
        current = perm[current]
        paths[:, step] = eigensets[step][current]

    return [
        Trajectory(
            branch_id=b,
            energies=energies,
            z_values=paths[b],
            discontinuities=tuple(disc[b]),
        )
        for b in range(n)
    ]
