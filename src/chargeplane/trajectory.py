"""Eigenvalue trajectories in the complex charge plane over an energy grid.

Each energy sample yields N eigenvalues whose ordering is solver-dependent,
so consecutive samples are stitched into continuous branches by greedy
nearest-pair matching. Each sample is one values-only eigensolve
(`eigensolver.eigenvalues`, checked by the trace sum, no eigenvectors), and
its parallel work runs inside LAPACK/BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ChannelConfig, integer
from .eigensolver import eigenvalues
from .errors import ChargePlaneError, EigensolverError
from .potential import PotentialModel
from .resonance import shared_hamiltonian


@dataclass(frozen=True)
class EnergyGrid:
    """Uniform grid Re E in [re_start, re_end] at fixed Im E."""

    re_start: float
    re_end: float
    steps: int
    im_part: float = 0.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "steps", integer(self.steps))
        except (TypeError, ValueError) as exc:
            raise ChargePlaneError(f"grid steps: {exc}") from exc
        if not np.all(np.isfinite([self.re_start, self.re_end, self.im_part])):
            raise ChargePlaneError(
                f"grid bounds must be finite, got re [{self.re_start}, {self.re_end}], "
                f"im {self.im_part}"
            )
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
    """One continued eigenvalue branch: the charge z_values[k] at each grid
    energy energies[k], branch_id being its index in the first sample's
    sorted order."""

    branch_id: int
    energies: np.ndarray = field(repr=False)
    z_values: np.ndarray = field(repr=False)


def match_step(prev, nxt):
    """Greedy minimum-distance assignment between two eigenvalue sets.

    Repeatedly pairs the globally closest unmatched (prev, next) eigenvalues,
    ties broken by the lower prev index, then the lower next index. Returns
    (perm, flagged) where perm[i] is the index in nxt matched to prev[i] and
    flagged lists prev-indices whose pair distance exceeds 5x the median
    matched distance (none when that median is 0).

    The greedy order is run in rounds: under the total order on keys
    (distance, i, j), a pair that is the key-minimum of both its row and its
    column among the unmatched ones is the pair greedy takes when it reaches
    that key, so each round takes every such mutual minimum at once.
    """
    prev = np.asarray(prev, dtype=complex)
    nxt = np.asarray(nxt, dtype=complex)
    if prev.shape != nxt.shape:
        raise ChargePlaneError("match_step requires equal-length eigenvalue sets")
    if not (np.all(np.isfinite(prev)) and np.all(np.isfinite(nxt))):
        raise ChargePlaneError("match_step requires finite eigenvalues")
    n = len(prev)
    dist = np.abs(prev[:, None] - nxt[None, :])
    perm = np.full(n, -1, dtype=int)
    rows = np.arange(n)
    cols = np.arange(n)
    sub = dist
    while rows.size:
        # argmin takes the first of equal distances: the lowest j in a row,
        # the lowest i in a column, as the (distance, i, j) key order asks.
        row_best = sub.argmin(axis=1)
        col_best = sub.argmin(axis=0)
        mutual = col_best[row_best] == np.arange(rows.size)
        perm[rows[mutual]] = cols[row_best[mutual]]
        free_cols = np.ones(cols.size, dtype=bool)
        free_cols[row_best[mutual]] = False
        rows, cols = rows[~mutual], cols[free_cols]
        sub = sub[~mutual][:, free_cols]
    pair_dist = dist[np.arange(n), perm]
    med = float(np.median(pair_dist))
    threshold = 5 * med if med > 0 else np.inf
    flagged = tuple(int(i) for i in np.nonzero(pair_dist > threshold)[0])
    return perm, flagged


def sweep(cfg: ChannelConfig, model: PotentialModel, grid: EnergyGrid) -> list[Trajectory]:
    """Trace all N eigenvalue branches over the energy grid in one pass.

    Branch ids follow the sorted eigenvalue order of the first sample. Each
    sample is stitched as it is solved: `match_step` pairs the previous
    sample, in its own sorted order, with this one, so ties go to the lower
    index in the previous sample's sorted order, and only that sample is
    held between steps. The operator is `resonance.shared_hamiltonian(cfg,
    model)`, the assembly every other command of the same (cfg, model) uses.
    """
    ham = shared_hamiltonian(cfg, model)
    energies = grid.energies()
    paths = np.empty((cfg.n_basis, len(energies)), dtype=complex)
    current = np.arange(cfg.n_basis)  # branch b sits at index current[b] of the sample
    previous = None
    for step, e in enumerate(energies):
        try:
            values = eigenvalues(ham.matrix(e))
        except EigensolverError as exc:
            raise EigensolverError(f"eigensolve failed at E = {e}: {exc}") from exc
        if previous is not None:
            current = match_step(previous, values)[0][current]
        paths[:, step] = values[current]
        previous = values
    return [Trajectory(b, energies, paths[b]) for b in range(cfg.n_basis)]
