"""Laguerre-basis machinery: the coordinate-operator J matrix and the Gauss
quadrature obtained from its spectral decomposition.

The basis functions are phi_n(x) = A_n x^alpha exp(-x/2) L_n^nu(x) with
x = lambda * r and 2*alpha = nu + 1 (orthonormal under dr/r). With the
channel choice nu = 2l + 1, matrix elements of the coordinate x form the
symmetric tridiagonal J matrix; its eigenvalues are the Gauss nodes and its
eigenvector products replace the classical quadrature weights.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import lapack
from .errors import ConfigError, EigensolverError

# The largest basis or quadrature size N whose N x N complex128 operator
# numpy can address: 16 N^2 bytes must not exceed the largest intp.
MAX_ORDER = math.isqrt(np.iinfo(np.intp).max // 16)


def integer(value) -> int:
    """An integral number as an int: 2, 2.0 and numpy's integers pass; 2.5,
    NaN, a bool or a value that is not a number raises ValueError or
    TypeError. Every order and count of a run is read through it, from a
    config file as from a library call."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"expected an integer, got {value!r}")
    if isinstance(value, numbers.Integral):
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(number)


@dataclass(frozen=True, kw_only=True)
class ChannelConfig:
    """One basis/rotation setting: (l, N, lambda, theta) plus quadrature size."""

    l: int = 0
    n_basis: int
    scale: float
    theta: float = 0.0
    quad_size: int | None = None

    def __post_init__(self):
        if self.quad_size is None:
            object.__setattr__(self, "quad_size", self.n_basis)
        for key in ("l", "n_basis", "quad_size"):
            try:
                object.__setattr__(self, key, integer(getattr(self, key)))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"channel {key}: {exc}") from exc
        if self.l < 0:
            raise ConfigError(f"angular momentum l must be a non-negative integer, got {self.l}")
        if self.n_basis < 1:
            raise ConfigError(f"basis size must be >= 1, got {self.n_basis}")
        if not 0 < self.scale < np.inf:
            raise ConfigError(f"channel.scale must be finite and > 0, got {self.scale}")
        if not 0 <= self.theta < np.pi / 2:
            raise ConfigError(f"rotation angle must lie in [0, pi/2), got {self.theta}")
        for key in ("n_basis", "quad_size"):
            if getattr(self, key) > MAX_ORDER:
                raise ConfigError(
                    f"{key} = {getattr(self, key)} exceeds {MAX_ORDER}, the largest"
                    " order whose N x N complex128 operator can be addressed"
                )
        if self.quad_size < self.n_basis:
            raise ConfigError(
                f"quadrature size {self.quad_size} smaller than basis size {self.n_basis}"
            )

    @property
    def nu(self) -> int:
        return 2 * self.l + 1

    @property
    def rotated_scale(self) -> complex:
        """lambda' = lambda * exp(-i*theta), the single rotated scale. A theta
        below eps moves lambda' by less than its rounding and is taken as 0:
        at an exact pole its imaginary parts cancel to subnormal pivots, whose
        LDL^T factors are not finite."""
        theta = self.theta if self.theta >= np.finfo(float).eps else 0.0
        return self.scale * np.exp(-1j * theta)


@dataclass(frozen=True)
class QuadratureRule:
    """Spectral decomposition of the J matrix.

    nodes[k] is the k-th eigenvalue (ascending, all positive); vectors[:, k]
    is its normalized eigenvector, of either sign. The products
    vectors[n, k] * vectors[m, k] play the role of Gauss weights, and a
    column's sign cancels in them, so no sign convention is needed.
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


def j_factor_bands(m: int, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and negated subdiagonal of the Cholesky factor of J.

    J = L L.T with L real and lower bidiagonal: L[n, n] = sqrt(n + nu + 1)
    and L[n, n-1] = -sqrt(n), so the second band starts with a 0 at n = 0.
    """
    n = np.arange(m, dtype=float)
    return np.sqrt(n + nu + 1), np.sqrt(n)


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

    Nodes come ascending from `lapack.eigh_tridiagonal` on J's two bands,
    made once per (m, nu); the tridiagonal solver forms no dense J. Where
    the process's LAPACK has no such solver, numpy's dense eigensolver on
    `build_j_matrix` gives the same bits up to column sign. Column signs are
    left as the solver returns them: every use of the rule multiplies two
    entries of one column, vectors[n, k] * vectors[m, k], and negating both
    factors leaves that product, and so every sum of such products, exact to
    the bit. The vectors are Fortran-ordered whichever solver made them:
    BLAS may round V's products differently for another memory layout.
    Rules are cached by (m, nu) and shared between callers, which is safe
    because their arrays are read-only.
    """
    try:
        rule = lapack.eigh_tridiagonal(*j_matrix_bands(m, nu))
        nodes, vectors = np.linalg.eigh(build_j_matrix(m, nu)) if rule is None else rule
    except np.linalg.LinAlgError as exc:  # pragma: no cover - not expected
        raise EigensolverError(f"J-matrix eigensolver failed at order {m}") from exc
    vectors = np.asfortranarray(vectors)
    nodes.setflags(write=False)
    vectors.setflags(write=False)
    return QuadratureRule(nu=nu, size=m, nodes=nodes, vectors=vectors)
