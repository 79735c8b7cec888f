"""Dense complex eigensolves and first-order eigenvalue derivatives.

The assembled matrices are complex symmetric (not Hermitian), so the full
non-symmetric LAPACK path (balance, Hessenberg, shifted QR) is used for the
decomposition; the symmetric structure is exploited only in the derivative
formula, where left eigenvectors are transposes of right ones.

Two solvers share one ordering. `eigen_decompose` returns eigenvectors and
checks each eigenpair's residual, an O(N^3) matmul. `eigenvalues` returns the
values alone and checks only that they sum to the trace, an O(N^2) check;
trajectory sweeps use it because they need no eigenvectors. Both call
numpy's LAPACK zgeev, which takes a different QR path with eigenvectors
(Schur form) than without, so their values differ by up to about an
eigenvalue's condition number times the rounding error in M: in the last
digits for well-conditioned charges, more for ill-conditioned large-|Z| ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEigenvectorError, EigensolverError

RESIDUAL_BOUND = 1e-10
TRACE_BOUND = 1e-10


@dataclass(frozen=True)
class EigenSet:
    """Full spectrum with right eigenvectors.

    values are sorted by (Re, Im) ascending; vectors[:, n] pairs with
    values[n], has unit Euclidean norm, and its largest-magnitude component
    is real positive.
    """

    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)


def _checked_square(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    if mat.shape != (n, n) or n < 1:
        raise EigensolverError(f"expected a square matrix of order >= 1, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise EigensolverError(f"matrix of order {n} contains non-finite entries")
    return mat


def _sorted_order(values: np.ndarray) -> np.ndarray:
    """Deterministic (Re, Im) ascending order shared by both solvers."""
    return np.lexsort((values.imag, values.real))


def eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a dense complex matrix, without eigenvectors.

    Sorted like EigenSet.values. mat is left intact: LAPACK works on a
    copy, an O(N^2) cost next to the O(N^3) solve. Raises
    EigensolverError on LAPACK non-convergence, on non-finite values, or
    when |sum(z) - tr M| exceeds TRACE_BOUND * ||M||_F, the O(N^2) check
    that stands in for eigen_decompose's per-eigenpair residuals.
    """
    mat = _checked_square(mat)
    n = mat.shape[0]
    trace = complex(np.trace(mat))
    scale = float(np.linalg.norm(mat, "fro"))
    try:
        values = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed at order {n}: {exc}") from exc
    if not np.all(np.isfinite(values)):
        raise EigensolverError(f"non-finite eigenvalues at order {n}")
    misfit = abs(complex(values.sum()) - trace)
    if misfit > TRACE_BOUND * scale:
        raise EigensolverError(
            f"trace check violated at order {n}: |sum(z) - tr M| = "
            f"{misfit / scale:.3e} x ||M||_F"
        )
    values = values[_sorted_order(values)]
    values.setflags(write=False)
    return values


def eigen_decompose(mat: np.ndarray) -> EigenSet:
    """Eigenvalues and right eigenvectors of a dense complex matrix.

    Ordering and eigenvector phase are deterministic so downstream output is
    reproducible bit-for-bit. Raises EigensolverError on LAPACK
    non-convergence or when the residual contract is violated.
    """
    mat = _checked_square(mat)
    n = mat.shape[0]
    try:
        values, vectors = np.linalg.eig(mat)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed at order {n}: {exc}") from exc

    order = _sorted_order(values)
    values = values[order]
    vectors = vectors[:, order]

    vectors = vectors / np.linalg.norm(vectors, axis=0)
    lead = np.take_along_axis(
        vectors, np.abs(vectors).argmax(axis=0)[None, :], axis=0
    )[0]
    vectors = vectors * (np.abs(lead) / lead)

    residuals = np.linalg.norm(mat @ vectors - vectors * values, axis=0)
    scale = np.linalg.norm(mat, "fro")
    if np.any(residuals > RESIDUAL_BOUND * scale):
        worst = float(residuals.max() / scale)
        raise EigensolverError(
            f"residual contract violated at order {n}: max relative residual {worst:.3e}"
        )
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenSet(values=values, vectors=vectors)


def eigenvalue_derivative(mat_prime: np.ndarray, x: np.ndarray) -> complex:
    """First-order derivative of an eigenvalue of a complex-symmetric family.

    For M(t) complex symmetric with right eigenvector x, dz/dt equals
    (x.T @ M'(t) @ x) / (x.T @ x) -- the bilinear, non-conjugated form.
    Raises DegenerateEigenvectorError when x.T @ x is quasi-null (near an
    eigenvalue degeneracy), where the formula is undefined.
    """
    x = np.asarray(x, dtype=complex)
    norm_sq = np.vdot(x, x).real
    bilinear = x @ x
    if abs(bilinear) < 1e-8 * norm_sq:
        raise DegenerateEigenvectorError(
            f"|x.T x| = {abs(bilinear):.3e} below 1e-8 * |x|^2 = {1e-8 * norm_sq:.3e}"
        )
    return complex((x @ (mat_prime @ x)) / bilinear)
