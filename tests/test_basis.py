import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_genlaguerre, gammaln

from chargeplane import (
    ChannelConfig,
    ConfigError,
    R2_EXP_POTENTIAL,
    build_j_matrix,
    gauss_rule,
    potential_matrix,
)


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
        assert cfg.alpha == 3.0
        assert cfg.quad_size == 10
        assert cfg.rotated_scale == pytest.approx(5.0 * np.exp(-0.3j))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(l=-1, n_basis=10, scale=5.0),
            dict(l=0, n_basis=0, scale=5.0),
            dict(l=0, n_basis=10, scale=0.0),
            dict(l=0, n_basis=10, scale=-2.0),
            dict(l=0, n_basis=10, scale=5.0, theta=2.0),
            dict(l=0, n_basis=10, scale=5.0, quad_size=5),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            ChannelConfig(**kwargs)
