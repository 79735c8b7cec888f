"""Tests for the LAPACK binding: numpy's own OpenBLAS and the scipy fallback
give the same factors and solves, factors keep the library that made them,
an exactly zero pivot is repaired, the tridiagonal eigensolver rejects
bands it cannot overwrite, a process with neither library is a solver
error, importing the package loads no scipy and no PyYAML, and no other
module of the package knows which library it has."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

from chargeplane import basis, lapack
from chargeplane.errors import EigensolverError
from chargeplane.reference import run_table


@pytest.fixture(params=["openblas", "scipy"])
def backend(request):
    """numpy's ILP64 OpenBLAS, or the fallbacks where the library lookup
    finds none (`no_ilp64`): scipy for LDL^T, numpy's dense eigensolver for
    the Gauss rule."""
    if request.param == "scipy":
        request.getfixturevalue("no_ilp64")
    elif lapack._ilp64() is None:
        pytest.skip("numpy's OpenBLAS exports no ILP64 routines here")
    return request.param


def _complex_symmetric(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.T


def _read_only(a):
    a.setflags(write=False)
    return a


class TestLDLT:
    @pytest.mark.parametrize("n", [1, 7, 150])
    def test_solve_inverts_the_matrix(self, backend, n):
        a = _complex_symmetric(n)
        b = np.arange(1, n + 1) * (1 - 0.5j)
        x = b.copy()
        factors = lapack.ldlt(a.copy())
        factors.solve(x)
        assert factors.info == 0
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(x)

    def test_factors_and_pivots_equal_the_other_library(self, request):
        a = _complex_symmetric(150, seed=3)
        by_default, by_scipy = a.copy(), a.copy()
        first = lapack.ldlt(by_default)
        request.getfixturevalue("no_ilp64")
        second = lapack.ldlt(by_scipy)
        x, y = np.ones(150, dtype=complex), np.ones(150, dtype=complex)
        first.solve(x)
        second.solve(y)
        assert np.array_equal(by_default, by_scipy)
        assert np.array_equal(first.ipiv, second.ipiv)
        assert np.array_equal(x, y)

    def test_factors_solve_with_the_library_that_made_them(self, request):
        a = _complex_symmetric(40, seed=5)
        factors = lapack.ldlt(a.copy())
        request.getfixturevalue("no_ilp64")  # a later factorization would use scipy
        x = np.ones(40, dtype=complex)
        factors.solve(x)
        assert np.linalg.norm(a @ x - 1) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(x)

    def test_exactly_zero_pivot_is_reported(self, backend):
        # (matrix, info, D's largest |entry|, null direction). Bunch-Kaufman
        # on the upper triangle starts at the last column: in the second
        # matrix a zero (3, 3) entry against the larger (2, 3) one makes rows
        # 2-3 a 2 x 2 pivot, whose Schur complement 1/2 - 2 (1/2)(1/2) is an
        # exactly zero pivot, and D's diagonal is all zeros.
        cases = [
            (np.diag([1.0, 0.0, 2.0]), 2, 2.0, [0.0, 1.0, 0.0]),
            ([[0.5, 0.5, 0.5], [0.5, 0.0, 1.0], [0.5, 1.0, 0.0]], 1, 1.0,
             np.array([2.0, -1.0, -1.0]) / np.sqrt(6)),
        ]
        eps = np.finfo(float).eps
        for mat, info, largest, null in cases:
            a = np.array(mat, dtype=complex)
            factors = lapack.ldlt(a)
            assert factors.info == info  # LAPACK counts from 1
            k = info - 1
            assert factors.ipiv[k] > 0  # a 1 x 1 pivot
            # repaired to eps times D's largest entry, so the solve returns
            # the null direction
            assert a[k, k] == largest * eps
            x = np.array([1.0, 1.0, 0.0], dtype=complex)
            factors.solve(x)
            assert np.abs(x / np.linalg.norm(x) - null).max() <= 4 * eps

    @pytest.mark.parametrize(
        "bad",
        [
            np.eye(3),  # real
            np.eye(3, dtype=complex)[:, :2],  # not square
            np.asfortranarray(_complex_symmetric(3)),
            np.eye(6, dtype=complex)[::2, ::2],  # not contiguous
            _read_only(_complex_symmetric(3)),
        ],
    )
    def test_rejects_what_it_cannot_factor_in_place(self, backend, bad):
        with pytest.raises(ValueError):
            lapack.ldlt(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            np.ones(4, dtype=complex),  # wrong length
            np.ones(3),  # real
            np.ones(3, dtype=np.complex64),
            np.ones(6, dtype=complex)[::2],  # not contiguous
            np.ones((3, 1), dtype=complex),
            _read_only(np.ones(3, dtype=complex)),
        ],
    )
    def test_solve_rejects_what_it_cannot_overwrite(self, backend, bad):
        factors = lapack.ldlt(_complex_symmetric(3))
        with pytest.raises(ValueError):
            factors.solve(bad)


class TestEighTridiagonal:
    # The bands are checked before the library lookup, so both paths reject
    # them alike.
    @pytest.mark.parametrize("band", ["diag", "off"])
    @pytest.mark.parametrize(
        "bad",
        [
            _read_only,
            lambda v: np.repeat(v, 2)[::2],  # not contiguous
            lambda v: v.astype(np.float32),
            lambda v: np.append(v, 1.0),  # wrong length
        ],
        ids=["read-only", "non-contiguous", "float32", "wrong-length"],
    )
    def test_rejects_what_it_cannot_overwrite(self, backend, band, bad):
        bands = dict(zip(("diag", "off"), basis.j_matrix_bands(5, 1.0)))
        bands[band] = bad(bands[band])
        with pytest.raises(ValueError):
            lapack.eigh_tridiagonal(bands["diag"], bands["off"])


def test_scipy_fallback_reproduces_the_table(request):
    default = [(r.computed_e_r, r.computed_gamma) for r in run_table("table1")]
    request.getfixturevalue("no_ilp64")
    fallback = [(r.computed_e_r, r.computed_gamma) for r in run_table("table1")]
    assert isinstance(lapack._backend(), lapack._SciPy)
    assert fallback == default


def test_no_backend_is_a_solver_error(no_ilp64, monkeypatch):
    # numpy built on a LAPACK without the ILP64 symbols, and no scipy
    monkeypatch.setitem(sys.modules, "scipy.linalg", None)
    with pytest.raises(EigensolverError, match="scipy_zsytrf_64_.*scipy.linalg"):
        lapack.ldlt(_complex_symmetric(3))


# Which scipy and PyYAML modules are loaded after importing the package
# and, unless the binding fell back to scipy, after a refinement. Only
# reading a config file imports yaml.
_OPTIONAL_MODULES = """
import sys
def optional():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "yaml"))
import chargeplane, chargeplane.cli
print(optional())
from chargeplane import R2_EXP_POTENTIAL, ChannelConfig, lapack, refine_resonance
refine_resonance(3.4 - 0.01j, 0.0, ChannelConfig(l=0, n_basis=20, scale=20.0), R2_EXP_POTENTIAL)
print(optional() if isinstance(lapack._backend(), lapack._OpenBLAS) else [])
"""


def test_the_package_runs_without_scipy(fresh_python):
    assert fresh_python(_OPTIONAL_MODULES).splitlines() == ["[]", "[]"]


# What only the binding may know of the library: ctypes, the libraries' and
# their exported symbols' names, the routines it binds or falls back to,
# the thread controls and Bunch-Kaufman's pivot storage.
_LIBRARY_KNOWLEDGE = re.compile(r"\bctypes\b|openblas|_64_|sytr[fs]|stevd|syevd|num_threads|ipiv")


def test_only_the_binding_knows_the_library():
    package = Path(lapack.__file__).parent
    found = {
        path.name: _LIBRARY_KNOWLEDGE.findall(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
        if path.name != "lapack.py"
    }
    assert found and not any(found.values()), found
