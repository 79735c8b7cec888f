"""Assembly of the complex-rotated charge-operator matrix.

The operator acting in the Laguerre basis is M(E) = S + E*D, with J the
Laguerre J matrix (nu = 2l + 1) and lambda' = lambda * exp(-i*theta):

  D = J / lambda'
  S = -(lambda'/8) * |J| + V

|J| is J with its off-diagonal sign flipped (J's diagonal is positive and its
off-diagonal negative) and V is the potential matrix by Gauss quadrature.
Both terms and D are built from J's two bands and the Gauss rule, with no
dense J, and S is formed in V's memory. V's real and imaginary parts are
two real products over its upper triangle, since the rule's vectors are
real and only the weights are complex. Rotation enters only through the
single complex scale lambda'; there is no coordinate-space rotation code
path. The eigenvalues of M(E) are the poles {Z_n} of the finite Green's
function. The energies at which one of them equals a target charge Z_t are
the eigenvalues of the pencil (S - Z_t, -D); J's bidiagonal Cholesky factor
L reduces it to the standard problem L^-1 (S - Z_t) L^-T, formed here too
(`RotatedHamiltonian.reduced`), so only this module and `basis` know J's
bands and its factor.
"""

from __future__ import annotations

import numpy as np

from .basis import ChannelConfig, QuadratureRule, gauss_rule, j_factor_bands, j_matrix_bands
from .errors import ConfigError, EigensolverError
from .potential import PotentialModel, eval_potential

# Rows of V per panel of its real products. A panel's two temporaries,
# PANEL_ROWS x quad_size and PANEL_ROWS x N reals, are what V's assembly
# holds besides V itself.
PANEL_ROWS = 64


def potential_matrix(
    cfg: ChannelConfig, model: PotentialModel, rule: QuadratureRule
) -> np.ndarray:
    """Dense matrix of the rotated potential term by Gauss quadrature.

    V[n, m] = sum_k L[n,k] L[m,k] s_k, with the scale folded into the
    weights: s_k = -(1/lambda') mu_k V(mu_k / lambda'). The nodes
    mu_k / lambda' lie on the rotated ray, so the potential is evaluated at
    complex radius. L is real, so V's real and imaginary parts are the two
    real products (L * s.real) @ L.T and (L * s.imag) @ L.T: no complex copy
    of L and a quarter of the real flops of one complex product. Each is
    formed over V's upper triangle only, PANEL_ROWS rows at a time, straight
    into V's own memory, and the upper triangle is then mirrored into the
    lower one in place, so V is exactly symmetric. Every entry is one dot
    product over k, whatever the panel; BLAS may still round a product of
    another shape differently, so the panel height is fixed.

    Raises EigensolverError, with no numpy warning, where a quadrature
    weight overflows, as a Gaussian term does on the ray past theta = pi/4.
    """
    if rule.nu != cfg.nu:
        raise ConfigError(f"quadrature nu={rule.nu} does not match channel nu={cfg.nu}")
    if rule.size < cfg.n_basis:
        raise ConfigError(
            f"quadrature size {rule.size} smaller than basis size {cfg.n_basis}"
        )
    lam, n = cfg.rotated_scale, cfg.n_basis
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves a weight not finite
        scaled = -(1.0 / lam) * (rule.nodes * eval_potential(model, rule.nodes / lam))
    if not np.isfinite(scaled).all():
        raise EigensolverError(f"the potential overflows on the rotated ray at theta = {cfg.theta}"
                               " (a Gaussian term grows like exp(b r^2 |cos 2 theta|) past pi/4)")
    vecs = rule.vectors[:n, :]
    mat = np.empty((n, n), dtype=np.complex128)
    for part, weights in ((mat.real, scaled.real), (mat.imag, scaled.imag)):
        for lo in range(0, n, PANEL_ROWS):
            hi = lo + PANEL_ROWS
            part[lo:hi, lo:] = (vecs[lo:hi] * weights) @ vecs[lo:].T
    for row in range(1, n):
        mat[row, :row] = mat[:row, row]
    mat += 0.0  # -0 becomes +0, so a zero entry has one bit pattern whatever its rounding
    return mat


class RotatedHamiltonian:
    """The one assembly of M(E) = S + E*D for a channel and potential.

    S is built in the memory of the potential matrix: the three bands of
    -(lambda'/8)|J| are added to V in place, from J's bands, so no dense J
    is formed. V is the one operator-sized array of the assembly: its two
    real products run by row panels, whose temporaries are PANEL_ROWS rows
    of real numbers each. D is tridiagonal and kept as its three bands. Both
    are read-only, so one instance serves every energy, and
    `resonance.shared_hamiltonian` shares one per (channel, potential) in a
    process. matrix(E, z) costs one copy of S plus O(N) updates on D's
    bands, into a fresh array or one the caller passes, and is exactly
    symmetric. apply_static(x) and apply_derivative(x) are S x and D x from
    the stored S and bands, with no operator-sized temporary. reduced(z) is
    the pencil (S - z, -D) reduced by J's Cholesky factor to one
    complex-symmetric matrix, whose eigenvalues are -E / lambda'.
    """

    def __init__(self, cfg: ChannelConfig, model: PotentialModel):
        self.cfg = cfg
        lam, n = cfg.rotated_scale, cfg.n_basis
        diag, off = j_matrix_bands(n, cfg.nu)
        self._static = potential_matrix(cfg, model, gauss_rule(cfg.quad_size, cfg.nu))
        flat = self._static.reshape(-1)
        flat[:: n + 1] += -(lam / 8) * np.abs(diag)
        kinetic_off = -(lam / 8) * np.abs(off)
        flat[1 :: n + 1] += kinetic_off
        flat[n :: n + 1] += kinetic_off
        self._d_diag = diag / lam
        self._d_off = off / lam
        for arr in (self._static, self._d_diag, self._d_off):
            arr.setflags(write=False)

    def matrix(
        self, energy: complex, z: float = 0.0, out: np.ndarray | None = None
    ) -> np.ndarray:
        """M(E) - z*I, exactly symmetric: a fresh, writable array, or `out`
        (a C-ordered complex128 N x N array) overwritten with it.

        Each entry is bit for bit the dense (S + E*D) - z*I, in that order
        of operations. Off D's bands the dense form adds a zero E*D, so only
        the sign of an exactly zero entry of S there could differ.
        """
        if not np.isfinite(energy):
            raise EigensolverError(f"non-finite energy {energy}")
        n = self.cfg.n_basis
        if out is None:
            mat = self._static.copy()
        elif out.shape == (n, n) and out.dtype == np.complex128 and out.flags.c_contiguous:
            mat = out
            np.copyto(mat, self._static)
        else:
            raise ValueError(f"out must be a C-ordered complex128 array of shape {(n, n)}")
        flat = mat.reshape(-1)
        off = energy * self._d_off
        flat[:: n + 1] += energy * self._d_diag
        flat[1 :: n + 1] += off
        flat[n :: n + 1] += off
        flat[:: n + 1] -= z
        return mat

    def apply_static(self, x: np.ndarray) -> np.ndarray:
        """S x = (M(E) - E*D) x."""
        return self._static @ x

    def apply_derivative(self, x: np.ndarray) -> np.ndarray:
        """D x = (J / lambda') x, from D's three bands in O(N)."""
        dx = self._d_diag * x
        dx[:-1] += self._d_off * x[1:]
        dx[1:] += self._d_off * x[:-1]
        return dx

    def reduced(self, z: float) -> np.ndarray:
        """L^-1 (S - z) L^-T, a fresh array, with J = L L.T (`j_factor_bands`).

        z is a charge of M(E) exactly when (S - z) x = -E D x has a nonzero
        solution. D = J / lambda', and J is real, tridiagonal and positive
        definite, so L is real and lower bidiagonal, and with y = L.T x that
        pencil is the standard problem L^-1 (S - z) L^-T y = -(E / lambda') y.
        The matrix is formed from M(0) - z by two bidiagonal forward
        substitutions, on its rows and then on those of its transpose.
        """
        diag, sub = j_factor_bands(self.cfg.n_basis, self.cfg.nu)
        reduced = self.matrix(0.0, z)
        for _ in range(2):  # L^-1 (S - z), then L^-1 of its transpose
            for i in range(len(diag)):  # sub[0] = 0, so row 0 is only scaled
                reduced[i] = (reduced[i] + sub[i] * reduced[i - 1]) / diag[i]
            reduced = reduced.T
        return reduced
