import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import eval_genlaguerre, gammaln

from chargeplane import (
    ChannelConfig,
    ConfigError,
    GAUSSIAN_WELL_POTENTIAL,
    QuadratureRule,
    R2_EXP_POTENTIAL,
    RotatedHamiltonian,
    build_j_matrix,
    gauss_rule,
    potential_matrix,
)
from chargeplane.basis import MAX_ORDER, j_factor_bands


def assert_dense_rule(rule, m, nu):
    """rule's nodes are those of numpy's dense eigensolver on J, bit for bit,
    and its vectors the same up to each column's sign."""
    nodes, vectors = np.linalg.eigh(build_j_matrix(m, nu))
    assert rule.nodes.tobytes() == nodes.tobytes()
    largest = np.abs(vectors).argmax(axis=0), np.arange(m)
    signs = np.sign(rule.vectors[largest]) * np.sign(vectors[largest])
    assert np.array_equal(rule.vectors * signs, vectors)


class TestJMatrix:
    def test_order_one(self):
        assert build_j_matrix(1, 3.0) == pytest.approx(np.array([[4.0]]))

    def test_order_two(self):
        expect = np.array([[2.0, -math.sqrt(2)], [-math.sqrt(2), 4.0]])
        assert build_j_matrix(2, 1.0) == pytest.approx(expect)

    def test_order_three(self):
        got = build_j_matrix(3, 1.0)
        assert np.allclose(np.diag(got), [2.0, 4.0, 6.0])
        assert np.allclose(np.diag(got, 1), [-math.sqrt(2), -math.sqrt(6)])
        assert np.allclose(got, got.T)

    @pytest.mark.parametrize("m", [1, 2, 60, 200])
    @pytest.mark.parametrize("nu", [1.0, 3.0, 7.0, 0.5])
    def test_factor_is_cholesky(self, m, nu):
        diag, sub = j_factor_bands(m, nu)
        factor = np.diag(diag) - np.diag(sub[1:], -1)
        j_mat = build_j_matrix(m, nu)
        assert np.abs(factor @ factor.T - j_mat).max() <= 1e-14 * np.abs(j_mat).max()
        assert np.allclose(factor, np.linalg.cholesky(j_mat), rtol=1e-14, atol=0)

    def test_invalid_nu(self):
        with pytest.raises(ConfigError):
            build_j_matrix(3, -1.0)

    def test_invalid_order(self):
        with pytest.raises(ConfigError):
            build_j_matrix(0, 1.0)


class TestGaussRule:
    def test_order_one(self):
        rule = gauss_rule(1, 1.0)
        assert rule.nodes == pytest.approx([2.0])
        assert rule.vectors == pytest.approx(np.array([[1.0]]))

    def test_order_two_nodes(self):
        # roots of L_2^(1)(x) = (x^2 - 6x + 6)/2
        rule = gauss_rule(2, 1.0)
        assert rule.nodes == pytest.approx([3 - math.sqrt(3), 3 + math.sqrt(3)], rel=1e-14)

    @pytest.mark.parametrize("m,nu", [(1, 1.0), (4, 1.0), (10, 3.0), (25, 7.0)])
    def test_first_row_moment(self, m, nu):
        # sum_k L[0,k]^2 mu_k = J_00 = nu + 1 by spectral reconstruction
        rule = gauss_rule(m, nu)
        assert np.sum(rule.vectors[0] ** 2 * rule.nodes) == pytest.approx(nu + 1, rel=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("nu", [1.0, 3.0])
    def test_nodes_are_laguerre_roots(self, m, nu):
        # explicit expansion: L_m^nu(x) = sum_k (-1)^k C(m+nu, m-k) x^k / k!
        coeffs = [
            (-1) ** k * math.comb(int(m + nu), m - k) / math.factorial(k)
            for k in range(m, -1, -1)
        ]
        roots = np.sort(np.roots(coeffs).real)
        rule = gauss_rule(m, nu)
        assert rule.nodes == pytest.approx(roots, rel=1e-9)

    @pytest.mark.parametrize("nu", [1.0, 3.0, 7.0])
    def test_orthonormal_and_reconstructs(self, nu):
        rule = gauss_rule(40, nu)
        L = rule.vectors
        assert np.abs(L.T @ L - np.eye(40)).max() < 1e-12
        recon = (L * rule.nodes) @ L.T
        assert np.abs(recon - build_j_matrix(40, nu)).max() < 1e-11

    def test_nodes_positive_increasing(self):
        rule = gauss_rule(30, 5.0)
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 200), nu=st.sampled_from([1, 3, 5, 7]))
    def test_nodes_strictly_ascending(self, m, nu):
        # the rule takes the tridiagonal eigensolver's order as it comes
        assert np.all(np.diff(gauss_rule(m, nu).nodes) > 0)

    # dstevd on J's bands and syevd on the dense J run the same
    # divide-and-conquer solver, so the rule is the dense one to the bit, up
    # to column sign
    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 250), nu=st.sampled_from([1, 3, 5, 7]))
    def test_rule_is_the_dense_eigensolver_bit_for_bit(self, m, nu):
        assert_dense_rule(gauss_rule.__wrapped__(m, nu), m, nu)

    # numpy built on a LAPACK without the ILP64 symbols, and no scipy; the
    # function-scoped fixtures hold for every example
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=st.integers(1, 250), nu=st.sampled_from([1, 3, 5, 7]))
    def test_fallback_needs_no_scipy(self, no_ilp64, monkeypatch, m, nu):
        monkeypatch.setitem(sys.modules, "scipy", None)
        assert_dense_rule(gauss_rule(m, nu), m, nu)
        cfg = ChannelConfig(l=(nu - 1) // 2, n_basis=m, scale=20.0, theta=0.5)
        RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)  # assembly needs no scipy either

    # at these orders the dense solver's vectors, left C-ordered, gave V
    # other bits than the same rule Fortran-ordered
    @pytest.mark.parametrize("n", [150, 200])
    def test_fallback_assembles_the_same_operator_bit_for_bit(self, request, n):
        cfg = ChannelConfig(l=0, n_basis=n, scale=20.0, theta=0.7)
        default = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL).matrix(3.43 - 0.01j)
        request.getfixturevalue("no_ilp64")
        fallback = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL).matrix(3.43 - 0.01j)
        assert fallback.tobytes() == default.tobytes()

    # Every reader of rule.vectors multiplies two entries of one column, so a
    # column's sign cannot reach the potential matrix, bit for bit.
    @settings(max_examples=40, deadline=None)
    @given(
        l=st.integers(0, 3),
        n=st.integers(1, 60),
        oversample=st.integers(0, 20),
        theta=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_signs_leave_potential_matrix_unchanged(self, l, n, oversample, theta, seed):
        cfg = ChannelConfig(l=l, n_basis=n, scale=20.0, theta=theta, quad_size=n + oversample)
        rule = gauss_rule(cfg.quad_size, cfg.nu)
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=rule.size)
        flipped = QuadratureRule(rule.nu, rule.size, rule.nodes, rule.vectors * signs)
        for model in (R2_EXP_POTENTIAL, GAUSSIAN_WELL_POTENTIAL):
            got = potential_matrix(cfg, model, flipped)
            assert got.tobytes() == potential_matrix(cfg, model, rule).tobytes()

    def test_deterministic(self):
        a = gauss_rule(20, 1.0)
        b = gauss_rule(20, 1.0)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.vectors, b.vectors)

    def test_cached_by_arguments(self):
        rule = gauss_rule(20, 3.0)
        assert gauss_rule(20, 3.0) is rule
        fresh = gauss_rule.__wrapped__(20, 3.0)
        assert np.array_equal(fresh.nodes, rule.nodes)
        assert np.array_equal(fresh.vectors, rule.vectors)
        for arr in (rule.nodes, rule.vectors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("nu", [1.0, 3.0, 7.0])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_polynomial_exactness(self, nu, j):
        # Gauss rule with M points is exact for polynomials of degree <= 2M-1
        m = 50
        rule = gauss_rule(m, nu)
        L = rule.vectors
        got = (L * rule.nodes**j) @ L.T
        ref = np.linalg.matrix_power(build_j_matrix(m, nu), j)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(got - ref).max() <= 1e-11 * scale


class TestQuadratureVsIntegration:
    def test_potential_elements_match_direct_integral(self):
        # oversampled quadrature vs adaptive integration of
        # -(1/lam) A_n A_m Int x^nu e^-x L_n L_m [x V(x/lam)] dx
        n_basis, nu, lam, m_quad = 4, 1, 4.0, 200
        cfg = ChannelConfig(l=0, n_basis=n_basis, scale=lam, theta=0.0, quad_size=m_quad)
        rule = gauss_rule(m_quad, nu)
        got = potential_matrix(cfg, R2_EXP_POTENTIAL, rule)

        def norm(n):
            return math.exp(0.5 * (gammaln(n + 1) - gammaln(n + nu + 1)))

        def element(n, m):
            def integrand(x):
                v = 7.5 * (x / lam) ** 2 * np.exp(-x / lam)
                return (
                    x**nu * np.exp(-x)
                    * eval_genlaguerre(n, nu, x) * eval_genlaguerre(m, nu, x)
                    * x * v
                )
            val, _ = integrate.quad(integrand, 0, np.inf, limit=200)
            return -(1.0 / lam) * norm(n) * norm(m) * val

        for n in range(n_basis):
            for m in range(n_basis):
                ref = element(n, m)
                assert got[n, m].imag == 0
                assert abs(got[n, m].real - ref) <= 1e-10 * abs(ref)


class TestChannelConfig:
    def test_derived_quantities(self):
        cfg = ChannelConfig(l=2, n_basis=10, scale=5.0, theta=0.3)
        assert cfg.nu == 5
        assert cfg.quad_size == 10
        assert cfg.rotated_scale == pytest.approx(5.0 * np.exp(-0.3j))
        cfg = ChannelConfig(l=np.int64(1), n_basis=20.0, scale=5.0)
        assert [type(v) for v in (cfg.l, cfg.n_basis, cfg.quad_size)] == [int] * 3

    def test_rotation_below_eps_is_none(self):
        eps = np.finfo(float).eps
        for theta in (5e-324, 1e-300, 1e-20, eps / 2):
            assert ChannelConfig(n_basis=10, scale=5.0, theta=theta).rotated_scale == 5.0
        assert ChannelConfig(n_basis=10, scale=5.0, theta=eps).rotated_scale.imag == -5.0 * eps

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(l=-1, n_basis=10, scale=5.0),
            dict(l=0, n_basis=0, scale=5.0),
            dict(l=0, n_basis=10, scale=0.0),
            dict(l=0, n_basis=10, scale=-2.0),
            dict(l=0, n_basis=10, scale=5.0, theta=2.0),
            dict(l=0, n_basis=10, scale=5.0, quad_size=5),
            dict(l=0, n_basis=10, scale=np.inf),
            dict(l=0, n_basis=10, scale=np.nan),
            # non-integral or bool orders, which once passed or failed in numpy
            dict(l=0, n_basis=20, scale=20.0, quad_size=30.5),
            dict(l=0, n_basis=20, scale=20.0, quad_size=np.nan),
            dict(l=0, n_basis=20.5, scale=20.0),
            dict(l=0, n_basis=True, scale=20.0),
            dict(l=True, n_basis=20, scale=20.0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ChannelConfig(**kwargs)

    # an N x N complex128 operator spans 16 N^2 bytes, which numpy can
    # address only up to the largest intp; only the check runs here, since a
    # machine could partly allocate an operator near the bound
    @pytest.mark.parametrize("key", ["n_basis", "quad_size"])
    def test_largest_addressable_order(self, key):
        assert 16 * MAX_ORDER**2 <= np.iinfo(np.intp).max < 16 * (MAX_ORDER + 1) ** 2
        with pytest.raises(ConfigError, match=f"{key} = {MAX_ORDER + 1} exceeds"):
            ChannelConfig(**{"n_basis": 1, "scale": 1.0, key: MAX_ORDER + 1})
        tracemalloc.start()
        try:
            cfg = ChannelConfig(**{"n_basis": 1, "scale": 1.0, key: MAX_ORDER})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cfg.quad_size == MAX_ORDER
        assert peak < 4096
