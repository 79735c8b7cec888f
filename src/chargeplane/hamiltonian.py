"""Assembly of the complex-rotated charge-operator matrix.

The operator acting in the Laguerre basis is H = H0 + V where H0 is
tridiagonal (nu = 2l + 1) and V is evaluated by Gauss quadrature. Rotation
enters only through the single complex scale lambda' = lambda * exp(-i*theta);
there is no coordinate-space rotation code path. The eigenvalues of the
assembled matrix are the poles {Z_n} of the finite Green's function.
"""

from __future__ import annotations

import numpy as np

from .basis import ChannelConfig, QuadratureRule, gauss_rule
from .errors import ConfigError, EigensolverError
from .potential import PotentialModel, eval_potential


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    """Mirror the upper triangle so mat[n, m] == mat[m, n] exactly."""
    upper = np.triu(mat)
    return upper + np.triu(mat, 1).T


def reference_matrix(cfg: ChannelConfig, energy: complex) -> np.ndarray:
    """Tridiagonal matrix of the rotated reference operator at energy E.

    With lambda' = lambda * exp(-i*theta):
      diagonal      lambda' * (E/lambda'^2 - 1/8) * (2n + nu + 1)
      off-diagonal -lambda' * (E/lambda'^2 + 1/8) * sqrt(n (n + nu))
    """
    lam = cfg.rotated_scale
    nu = cfg.nu
    n = np.arange(cfg.n_basis, dtype=float)
    diag = lam * (energy / lam**2 - 0.125) * (2 * n + nu + 1)
    k = np.arange(1, cfg.n_basis, dtype=float)
    off = -lam * (energy / lam**2 + 0.125) * np.sqrt(k * (k + nu))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def potential_matrix(
    cfg: ChannelConfig, model: PotentialModel, rule: QuadratureRule
) -> np.ndarray:
    """Dense matrix of the rotated potential term by Gauss quadrature.

    V[n, m] = -(1/lambda') * sum_k L[n,k] L[m,k] mu_k V(mu_k / lambda').
    The nodes mu_k / lambda' lie on the rotated ray, so the potential is
    evaluated at complex radius.
    """
    if rule.nu != cfg.nu:
        raise ConfigError(f"quadrature nu={rule.nu} does not match channel nu={cfg.nu}")
    if rule.size < cfg.n_basis:
        raise ConfigError(
            f"quadrature size {rule.size} smaller than basis size {cfg.n_basis}"
        )
    lam = cfg.rotated_scale
    radii = rule.nodes / lam
    weights = rule.nodes * eval_potential(model, radii)
    vecs = rule.vectors[: cfg.n_basis, :]
    mat = -(1.0 / lam) * (vecs * weights) @ vecs.T
    return _symmetrize(mat)


def energy_derivative_matrix(cfg: ChannelConfig) -> np.ndarray:
    """dH/dE: the J matrix scaled by 1/lambda'. Independent of E."""
    lam = cfg.rotated_scale
    nu = cfg.nu
    n = np.arange(cfg.n_basis, dtype=float)
    diag = (2 * n + nu + 1) / lam
    k = np.arange(1, cfg.n_basis, dtype=float)
    off = -np.sqrt(k * (k + nu)) / lam
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def full_matrix(
    cfg: ChannelConfig,
    model: PotentialModel,
    rule: QuadratureRule,
    energy: complex,
) -> np.ndarray:
    """Reference plus potential assembly at one energy."""
    return reference_matrix(cfg, energy) + potential_matrix(cfg, model, rule)


class RotatedHamiltonian:
    """Caches the E-independent pieces of the assembly for energy sweeps.

    The potential matrix and the two tridiagonal coefficient matrices are
    computed once; matrix(E) then costs two scaled tridiagonal adds. All
    cached arrays are immutable after construction and safe to share across
    a parallel sweep.
    """

    def __init__(
        self,
        cfg: ChannelConfig,
        model: PotentialModel,
        rule: QuadratureRule | None = None,
    ):
        if rule is None:
            rule = gauss_rule(cfg.quad_size, cfg.nu)
        self.cfg = cfg
        self.model = model
        self.rule = rule
        lam = cfg.rotated_scale
        nu = cfg.nu
        n = np.arange(cfg.n_basis, dtype=float)
        k = np.arange(1, cfg.n_basis, dtype=float)
        # H0(E) = E * J/lambda' - (lambda'/8) * K, with K the sign-flipped J.
        self._dh_de = energy_derivative_matrix(cfg)
        self._static = (
            np.diag(-(lam / 8) * (2 * n + nu + 1))
            + np.diag(-(lam / 8) * np.sqrt(k * (k + nu)), 1)
            + np.diag(-(lam / 8) * np.sqrt(k * (k + nu)), -1)
            + potential_matrix(cfg, model, rule)
        )
        self._dh_de.setflags(write=False)
        self._static.setflags(write=False)

    def matrix(self, energy: complex) -> np.ndarray:
        if not np.isfinite(energy):
            raise EigensolverError(f"non-finite energy {energy}")
        return self._static + energy * self._dh_de

    @property
    def derivative(self) -> np.ndarray:
        """dH/dE, shared read-only array."""
        return self._dh_de
