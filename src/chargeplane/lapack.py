"""The one module that knows which LAPACK the process has: it binds the
complex-symmetric LDL^T factorization (zsytrf) and solve (zsytrs) and the
symmetric tridiagonal eigensolver (dstevd), and pins every loaded OpenBLAS
to one thread (`one_thread`).

numpy's wheels bundle an ILP64 OpenBLAS that exports all of LAPACK under
`scipy_` names with a `64_` suffix, so neither refinement nor assembly needs
a scipy import, which costs a cold process more than numpy itself. One
cached lookup (`_ilp64`) finds the first loaded OpenBLAS that exports all
three routines the module calls, `scipy_zsytrf_64_`, `scipy_zsytrs_64_` and
`scipy_dstevd_64_`, and both bindings read it. Their Fortran interface is
called through ctypes: every integer is an int64 passed by reference, and
each one-character argument (`uplo`, `jobz`) takes a hidden length argument
at the end. Where no loaded OpenBLAS exports all three (numpy built on MKL
or on a system LAPACK, or no readable /proc/self/maps), the LDL^T pair falls
back to `scipy.linalg`'s wrappers, and `eigh_tridiagonal` returns None, so
that its caller diagonalizes the dense matrix instead. The two libraries'
pivot arrays differ in integer width, so factors carry their own solve, and
only the library that made them solves with them. Every array LAPACK writes
in place passes one check (`_writable`) first.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .errors import EigensolverError

_UPPER = ctypes.c_char_p(b"U")
_VECTORS = ctypes.c_char_p(b"V")
_CHAR_LENGTH = ctypes.c_size_t(1)
_ONE = ctypes.byref(ctypes.c_int64(1))
# The routines the bindings call, as numpy's ILP64 OpenBLAS exports them.
_ROUTINES = ("scipy_zsytrf_64_", "scipy_zsytrs_64_", "scipy_dstevd_64_")


class Factors(NamedTuple):
    """Bunch-Kaufman factors of a complex-symmetric matrix A, computed in the
    memory of the array that held A, so D lies on its diagonal. info > 0 marks
    an exactly zero 1 x 1 pivot of D, which `ldlt` has replaced by eps times
    D's largest |entry|; ipiv > 0 marks a 1 x 1 pivot. solve(b) overwrites b,
    a writable contiguous complex128 vector of the matrix's order, with
    A^-1 b."""

    ipiv: np.ndarray
    info: int
    solve: Callable[[np.ndarray], None]


def openblas_paths() -> list[str]:
    """Paths of every OpenBLAS loaded into this process, sorted: numpy's,
    and scipy's once scipy.linalg is imported. Empty where none is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p))


def _writable(a: np.ndarray, shape: tuple, dtype: type):
    """Raise ValueError unless a is a writable C-contiguous array of that
    shape and dtype, which LAPACK may overwrite in place."""
    if not (a.shape == shape and a.dtype == dtype and a.flags.c_contiguous
            and a.flags.writeable):
        raise ValueError(f"expected a writable C-contiguous {np.dtype(dtype)} array of shape"
                         f" {shape}, got {a.dtype} of shape {a.shape}")


class _OpenBLAS:
    """zsytrf/zsytrs of an ILP64 OpenBLAS. Every argument is a ctypes object
    of its exact C type, so the functions take no argtypes, whose conversion
    would cost more than the call itself at refinement's small orders; arrays
    are passed as ctypes views of their buffers, which keep them alive. The
    functions are loaded through PyDLL and so hold the interpreter lock, as
    scipy's wrappers do: the workspace kept per order is never used by two
    calls at once."""

    def __init__(self, sytrf, sytrs):
        self._sytrf, self._sytrs = sytrf, sytrs

    @lru_cache(maxsize=8)
    def _order(self, n: int) -> tuple:
        """The arguments fixed at order n: the order, the workspace from
        LAPACK's query (lwork = -1), held so that a factorization allocates
        none, its length, and the ctypes types of an n x n matrix, n pivots
        and an n-vector."""
        order, lwork, info = ctypes.c_int64(n), ctypes.c_int64(-1), ctypes.c_int64()
        query = np.zeros(1, dtype=np.complex128)  # also A, which the query does not read
        self._sytrf(_UPPER, ctypes.byref(order), query.ctypes, ctypes.byref(order), None,
                    query.ctypes, ctypes.byref(lwork), ctypes.byref(info), _CHAR_LENGTH)
        work = np.empty(max(1, int(query[0].real)), dtype=np.complex128)
        lwork.value = len(work)
        types = (ctypes.c_char * (16 * n * n), ctypes.c_char * (8 * n), ctypes.c_char * (16 * n))
        return (ctypes.byref(order), (ctypes.c_char * work.nbytes).from_buffer(work),
                ctypes.byref(lwork), *types)

    def factor(self, a: np.ndarray) -> Factors:
        # a is C-ordered, so LAPACK reads it as a.T, the same symmetric matrix
        n = len(a)
        order, work, lwork, matrix_type, pivots_type, rhs_type = self._order(n)
        ipiv = np.empty(n, dtype=np.int64)
        a_arg, ipiv_arg = matrix_type.from_buffer(a), pivots_type.from_buffer(ipiv)
        info = ctypes.c_int64()
        info_arg = ctypes.byref(info)
        self._sytrf(_UPPER, order, a_arg, order, ipiv_arg, work, lwork, info_arg, _CHAR_LENGTH)
        sytrs = self._sytrs

        def solve(b: np.ndarray):
            _writable(b, (n,), np.complex128)
            sytrs(_UPPER, order, _ONE, a_arg, order, ipiv_arg, rhs_type.from_buffer(b), order,
                  info_arg, _CHAR_LENGTH)

        return Factors(ipiv, info.value, solve)


class _SciPy:
    """scipy.linalg's zsytrf/zsytrs, for a numpy without the ILP64 symbols.
    Raises EigensolverError where scipy is not installed either."""

    def __init__(self):
        try:
            import scipy.linalg
        except ImportError as exc:
            raise EigensolverError(
                f"no LDL^T backend: no loaded OpenBLAS exports {', '.join(_ROUTINES)},"
                f" and scipy.linalg cannot be imported ({exc})"
            ) from exc

        self._sytrf, self._sytrs, self._sytrf_lwork = scipy.linalg.get_lapack_funcs(
            ("sytrf", "sytrs", "sytrf_lwork"), dtype=np.complex128
        )

    @lru_cache(maxsize=8)
    def _lwork(self, n: int) -> int:
        # the wrapper's default, n, leaves room for no block: sytrf would run unblocked
        work, _ = self._sytrf_lwork(n)
        return int(work.real)

    def factor(self, a: np.ndarray) -> Factors:
        # a.T is Fortran-ordered, so the wrapper factors it without a copy
        ldu, ipiv, info = self._sytrf(a.T, lwork=self._lwork(len(a)), overwrite_a=True)
        sytrs = self._sytrs

        def solve(b: np.ndarray):
            _writable(b, ipiv.shape, np.complex128)
            sytrs(ldu, ipiv, b, overwrite_b=True)  # in place: b is contiguous

        return Factors(ipiv, info, solve)


@lru_cache(maxsize=1)
def _ilp64() -> ctypes.PyDLL | None:
    """The first loaded OpenBLAS (`openblas_paths`) that exports all of
    _ROUTINES, with their return values declared void; None where none
    does."""
    for path in openblas_paths():
        lib = ctypes.PyDLL(path)
        if all(hasattr(lib, name) for name in _ROUTINES):
            for name in _ROUTINES:
                getattr(lib, name).restype = None
            return lib
    return None


@lru_cache(maxsize=1)
def _backend():
    """The ILP64 OpenBLAS's LDL^T pair (`_ilp64`), else scipy's."""
    lib = _ilp64()
    return _SciPy() if lib is None else _OpenBLAS(lib.scipy_zsytrf_64_, lib.scipy_zsytrs_64_)


def eigh_tridiagonal(diag: np.ndarray, off: np.ndarray) -> tuple | None:
    """Eigenvalues, ascending, and orthonormal eigenvectors (as columns) of
    the real symmetric tridiagonal matrix with diagonal diag and first
    off-diagonal off; None where no loaded OpenBLAS exports the ILP64
    routines (`_ilp64`).

    diag and off must be writable contiguous float64 arrays of lengths n and
    n - 1, whatever the library. dstevd overwrites them, returns diag as the
    eigenvalues and the eigenvectors Fortran-ordered, and forms no dense
    matrix: its workspace holds n^2 + 4n + 1 doubles. numpy's dense syevd
    on the same matrix gives the same bits up to column sign: its reduction
    of a tridiagonal matrix makes identity reflectors, then runs the same
    divide-and-conquer solver. Raises numpy.linalg.LinAlgError where dstevd
    fails to converge.
    """
    n = len(diag)
    _writable(diag, (n,), np.float64)
    _writable(off, (n - 1,), np.float64)
    lib = _ilp64()
    if lib is None:
        return None
    vectors = np.empty((n, n))  # C-ordered: row k holds eigenvector k
    work = np.empty(1 + 4 * n + n * n)
    iwork = np.empty(3 + 5 * n, dtype=np.int64)
    order, info = ctypes.c_int64(n), ctypes.c_int64()
    # an array's .ctypes passes its data pointer; off may be empty (n = 1),
    # which dstevd does not read
    lib.scipy_dstevd_64_(_VECTORS, ctypes.byref(order), diag.ctypes, off.ctypes, vectors.ctypes,
                         ctypes.byref(order), work.ctypes, ctypes.byref(ctypes.c_int64(len(work))),
                         iwork.ctypes, ctypes.byref(ctypes.c_int64(len(iwork))),
                         ctypes.byref(info), _CHAR_LENGTH)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dstevd failed to converge (info = {info.value})")
    return diag, vectors.T


def ldlt(a: np.ndarray) -> Factors:
    """Bunch-Kaufman LDL^T factors of the complex-symmetric matrix a, a
    writable C-ordered complex128 square array, computed in a's own memory.

    Only one triangle is read, so a must be exactly symmetric. The solve
    reads the factors from a, so a write to a changes them. An exactly zero
    1 x 1 pivot of D is still reported in info, but replaced by eps times
    D's largest |entry|, so the solve of a matrix singular to working
    precision returns its null direction, as inverse iteration does
    (LAPACK's xLAEIN). That scale counts the off-diagonal entry of each
    2 x 2 pivot block, whose diagonal may be all zeros.
    """
    n = len(a)
    _writable(a, (n, n), np.complex128)
    factors = _backend().factor(a)
    if factors.info > 0:
        pivots = np.diagonal(a)
        # ipiv < 0 at both rows of a 2 x 2 block, so every other such row is
        # a block's first; LAPACK's upper triangle of a.T holds the block's
        # off-diagonal entry in the row below it
        first = np.flatnonzero(factors.ipiv < 0)[::2]
        largest = np.abs(np.concatenate((pivots, a[first + 1, first]))).max()
        zero = np.flatnonzero((pivots == 0) & (factors.ipiv > 0))
        a[zero, zero] = np.finfo(float).eps * largest
    return factors


def _thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS loaded into this
    process (`openblas_paths`). Empty where none is found."""
    controls = []
    for path in openblas_paths():
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def one_thread():
    """Every loaded OpenBLAS at one thread inside the block, the previous
    counts restored after it. The LDL^T backend is resolved first, so a
    scipy fallback's OpenBLAS is loaded before it is pinned; where there is
    none, the block still runs and its first factorization raises."""
    with contextlib.suppress(EigensolverError):
        _backend()
    saved = [(set_, get()) for get, set_ in _thread_controls()]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, threads in saved:
            set_(threads)
