import warnings

import numpy as np
import pytest

from chargeplane import (
    ChannelConfig,
    DegenerateEigenvectorError,
    EigensolverError,
    PotentialModel,
    RotatedHamiltonian,
    build_j_matrix,
    eigen_decompose,
    eigenvalue_derivative,
    eigenvalues,
)


def random_complex_symmetric(n, rng):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.T) / 2


class TestDecompose:
    def test_diagonal_matrix(self):
        d = np.array([2.0 - 1j, -1.0 + 0.5j, 0.3j])
        es = eigen_decompose(np.diag(d))
        assert np.allclose(np.sort_complex(es.values), np.sort_complex(d))
        # eigenvectors are coordinate vectors, one nonzero entry each
        for k in range(3):
            col = np.abs(es.vectors[:, k])
            assert col.max() == pytest.approx(1.0)
            assert np.sort(col)[:-1] == pytest.approx(np.zeros(2), abs=1e-14)

    def test_two_by_two_analytic(self):
        es = eigen_decompose(np.array([[0, 1j], [1j, 0]]))
        assert np.allclose(np.sort(es.values.imag), [-1.0, 1.0])
        assert np.allclose(es.values.real, 0.0, atol=1e-14)

    def test_hydrogen_spectrum(self):
        cfg = ChannelConfig(l=0, n_basis=20, scale=2.0, theta=0.0)
        es = eigen_decompose(RotatedHamiltonian(cfg, PotentialModel()).matrix(-0.5))
        assert np.allclose(es.values, -np.arange(20, 0, -1), atol=1e-12)

    def test_sorted_and_residuals(self):
        rng = np.random.default_rng(7)
        mat = random_complex_symmetric(40, rng)
        es = eigen_decompose(mat)
        keys = list(zip(es.values.real, es.values.imag))
        assert keys == sorted(keys)
        residuals = np.linalg.norm(mat @ es.vectors - es.vectors * es.values, axis=0)
        assert np.all(residuals <= 1e-10 * np.linalg.norm(mat, "fro"))

    def test_deterministic_phase(self):
        rng = np.random.default_rng(3)
        mat = random_complex_symmetric(15, rng)
        a = eigen_decompose(mat)
        b = eigen_decompose(mat)
        assert np.array_equal(a.vectors, b.vectors)
        lead = np.take_along_axis(a.vectors, np.abs(a.vectors).argmax(axis=0)[None, :], axis=0)[0]
        assert np.allclose(lead.imag, 0, atol=1e-14)
        assert np.all(lead.real > 0)

    def test_real_spectrum_conjugation_closed(self):
        rng = np.random.default_rng(11)
        mat = rng.normal(size=(30, 30))
        vals = eigen_decompose(mat).values
        for z in vals:
            assert np.min(np.abs(vals - z.conjugate())) < 1e-10

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        mat = random_complex_symmetric(60, rng)
        vals = eigen_decompose(mat).values
        assert abs(vals.sum() - np.trace(mat)) <= 1e-9 * np.linalg.norm(mat, "fro")

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(9)
        mat = random_complex_symmetric(25, rng)
        perm = rng.permutation(25)
        p = np.eye(25)[perm]
        vals_a = eigen_decompose(mat).values
        vals_b = eigen_decompose(p @ mat @ p.T).values
        assert np.allclose(vals_a, vals_b, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(EigensolverError):
            eigen_decompose(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    def test_nonsquare_rejected(self):
        with pytest.raises(EigensolverError):
            eigen_decompose(np.zeros((2, 3), dtype=complex))


class TestEigenvalues:
    def test_matches_decomposition_in_order(self):
        rng = np.random.default_rng(7)
        mat = random_complex_symmetric(40, rng)
        vals = eigenvalues(mat.copy())
        assert not vals.flags.writeable
        assert np.abs(vals - eigen_decompose(mat).values).max() <= 1e-10 * np.linalg.norm(mat)

    def test_leaves_writable_and_read_only_input_intact(self):
        ham = RotatedHamiltonian(ChannelConfig(l=0, n_basis=40, scale=20.0), PotentialModel())
        mat = ham.matrix(3.0 - 0.1j)
        read_only = mat.copy()
        read_only.setflags(write=False)
        vals = eigenvalues(mat)
        assert np.array_equal(mat, read_only)
        assert np.array_equal(eigenvalues(read_only), vals)
        assert np.array_equal(read_only, ham.matrix(3.0 - 0.1j))

    def test_trace_check_failure_raises_without_warnings(self, monkeypatch):
        true_eigvals = np.linalg.eigvals

        def perturbed(mat, **kwargs):
            vals = true_eigvals(mat, **kwargs)
            vals[0] += 1e-6
            return vals

        monkeypatch.setattr(np.linalg, "eigvals", perturbed)
        mat = random_complex_symmetric(20, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match="trace check"):
                eigenvalues(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_output_raises(self, monkeypatch, bad):
        def broken(mat, **kwargs):
            vals = np.zeros(mat.shape[0], dtype=complex)
            vals[-1] = bad
            return vals

        monkeypatch.setattr(np.linalg, "eigvals", broken)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match="non-finite eigenvalues"):
                eigenvalues(np.eye(3, dtype=complex))

    def test_lapack_failure_is_solver_error(self, monkeypatch):
        def failing(mat, **kwargs):
            raise np.linalg.LinAlgError("eig algorithm did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", failing)
        with pytest.raises(EigensolverError, match="QR iteration failed"):
            eigenvalues(np.eye(3, dtype=complex))

    def test_nonfinite_and_nonsquare_input_rejected(self):
        with pytest.raises(EigensolverError):
            eigenvalues(np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(EigensolverError):
            eigenvalues(np.zeros((2, 3), dtype=complex))


class TestDerivative:
    def test_one_by_one(self):
        es = eigen_decompose(np.array([[3.7 + 0.1j]]))
        assert eigenvalue_derivative(np.array([[1.0]]), es.vectors[:, 0]) == pytest.approx(1.0)

    def test_affine_family_finite_difference(self):
        rng = np.random.default_rng(17)
        a = random_complex_symmetric(6, rng)
        b = random_complex_symmetric(6, rng)
        e, h = 0.4 - 0.2j, 1e-6
        es = eigen_decompose(a + e * b)
        for k in range(6):
            z0 = es.values[k]
            deriv = eigenvalue_derivative(b, es.vectors[:, k])
            up = eigen_decompose(a + (e + h) * b).values
            dn = eigen_decompose(a + (e - h) * b).values
            fd = (up[np.argmin(np.abs(up - z0))] - dn[np.argmin(np.abs(dn - z0))]) / (2 * h)
            assert abs(deriv - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_hydrogen_branch_slope(self):
        # V = 0, lam = 2, l = 0: branch Z_0(E) = -sqrt(-2E), slope 1 at E = -1/2
        cfg = ChannelConfig(l=0, n_basis=50, scale=2.0, theta=0.0)
        ham = RotatedHamiltonian(cfg, PotentialModel())
        es = eigen_decompose(ham.matrix(-0.5))
        k = int(np.argmin(np.abs(es.values - (-1.0))))
        d_mat = build_j_matrix(cfg.n_basis, cfg.nu) / cfg.rotated_scale
        deriv = eigenvalue_derivative(d_mat, es.vectors[:, k])
        assert deriv == pytest.approx(1.0, abs=1e-8)

    def test_quasi_null_vector_rejected(self):
        # isotropic vector: x.T x = 0 exactly
        x = np.array([1.0, 1j]) / np.sqrt(2)
        with pytest.raises(DegenerateEigenvectorError):
            eigenvalue_derivative(np.eye(2, dtype=complex), x)

    def test_branch_slope_matches_trajectory_step(self):
        cfg = ChannelConfig(l=0, n_basis=30, scale=10.0, theta=0.5)
        from chargeplane import R2_EXP_POTENTIAL, match_step

        ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
        e, h = 2.0 - 0.5j, 1e-5
        es = eigen_decompose(ham.matrix(e))
        nxt = eigen_decompose(ham.matrix(e + h)).values
        perm, _ = match_step(es.values, nxt)
        d_mat = build_j_matrix(cfg.n_basis, cfg.nu) / cfg.rotated_scale
        for k in range(0, 30, 7):
            deriv = eigenvalue_derivative(d_mat, es.vectors[:, k])
            slope = (nxt[perm[k]] - es.values[k]) / h
            assert abs(deriv - slope) <= 1e-5 * max(1.0, abs(slope))
