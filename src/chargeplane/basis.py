"""Laguerre-basis machinery: the coordinate-operator J matrix and the Gauss
quadrature obtained from its spectral decomposition.

The basis functions are phi_n(x) = A_n x^alpha exp(-x/2) L_n^nu(x) with
x = lambda * r and 2*alpha = nu + 1 (orthonormal under dr/r). With the
channel choice nu = 2l + 1, matrix elements of the coordinate x form the
symmetric tridiagonal J matrix; its eigenvalues are the Gauss nodes and its
eigenvector products replace the classical quadrature weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConfigError, EigensolverError


@dataclass(frozen=True)
class ChannelConfig:
    """One basis/rotation setting: (l, N, lambda, theta) plus quadrature size."""

    l: int
    n_basis: int
    scale: float
    theta: float = 0.0
    quad_size: int | None = None

    def __post_init__(self):
        if self.l < 0 or int(self.l) != self.l:
            raise ConfigError(f"angular momentum l must be a non-negative integer, got {self.l}")
        if self.n_basis < 1:
            raise ConfigError(f"basis size must be >= 1, got {self.n_basis}")
        if not self.scale > 0:
            raise ConfigError(f"scale must be > 0, got {self.scale}")
        if not 0 <= self.theta < np.pi / 2:
            raise ConfigError(f"rotation angle must lie in [0, pi/2), got {self.theta}")
        if self.quad_size is None:
            object.__setattr__(self, "quad_size", self.n_basis)
        if self.quad_size < self.n_basis:
            raise ConfigError(
                f"quadrature size {self.quad_size} smaller than basis size {self.n_basis}"
            )

    @property
    def nu(self) -> int:
        return 2 * self.l + 1

    @property
    def alpha(self) -> float:
        return (self.nu + 1) / 2

    @property
    def rotated_scale(self) -> complex:
        """lambda' = lambda * exp(-i*theta), the single rotated scale."""
        return self.scale * np.exp(-1j * self.theta)


@dataclass(frozen=True)
class QuadratureRule:
    """Spectral decomposition of the J matrix.

    nodes[k] is the k-th eigenvalue (ascending, all positive); vectors[:, k]
    is its normalized eigenvector. The products vectors[n, k] * vectors[m, k]
    play the role of Gauss weights.
    """

    nu: float
    size: int
    nodes: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)


def j_matrix_bands(m: int, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and first superdiagonal of the J matrix."""
    if m < 1:
        raise ConfigError(f"matrix order must be >= 1, got {m}")
    if not nu > -1:
        raise ConfigError(f"Laguerre parameter nu must be > -1, got {nu}")
    n = np.arange(m, dtype=float)
    diag = 2 * n + nu + 1
    k = np.arange(1, m, dtype=float)
    off = -np.sqrt(k * (k + nu))
    return diag, off


def build_j_matrix(m: int, nu: float) -> np.ndarray:
    """Dense symmetric tridiagonal J matrix of order m.

    J[n, n] = 2n + nu + 1 and J[n, n+1] = -sqrt((n+1)(n+nu+1)). The negative
    off-diagonal sign is the true coordinate-operator representation and must
    not be symmetrized away.
    """
    diag, off = j_matrix_bands(m, nu)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@lru_cache(maxsize=8)
def gauss_rule(m: int, nu: float) -> QuadratureRule:
    """Gauss quadrature of size m from diagonalizing the J matrix.

    Nodes are sorted ascending; each eigenvector column is sign-fixed so its
    first component of non-negligible magnitude is positive, making outputs
    bit-stable across runs. Rules are cached by (m, nu) and shared between
    callers, which is safe because their arrays are read-only.
    """
    diag, off = j_matrix_bands(m, nu)
    try:
        if m == 1:
            nodes = diag.copy()
            vectors = np.ones((1, 1))
        else:
            nodes, vectors = eigh_tridiagonal(diag, off)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - not expected
        raise EigensolverError(f"tridiagonal eigensolver failed at order {m}", order=m) from exc
    order = np.argsort(nodes)
    nodes = nodes[order]
    vectors = vectors[:, order]
    for k in range(m):
        col = vectors[:, k]
        lead = col[np.abs(col) > 1e-12 * np.abs(col).max()][0]
        if lead < 0:
            vectors[:, k] = -col
    nodes.setflags(write=False)
    vectors.setflags(write=False)
    return QuadratureRule(nu=nu, size=m, nodes=nodes, vectors=vectors)
