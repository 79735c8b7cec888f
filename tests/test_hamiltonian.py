import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplane import (
    ChannelConfig,
    ConfigError,
    GAUSSIAN_WELL_POTENTIAL,
    PotentialModel,
    R2_EXP_POTENTIAL,
    RotatedHamiltonian,
    build_j_matrix,
    gauss_rule,
    poles,
    potential_matrix,
    refine_resonance,
)
from chargeplane import basis, lapack
from chargeplane.potential import eval_potential

ZERO_POTENTIAL = PotentialModel()


def dense_derivative(cfg):
    """D = dM/dE = J / lambda' as a dense matrix."""
    return build_j_matrix(cfg.n_basis, cfg.nu) / cfg.rotated_scale


def dense_potential(cfg, model):
    """V written out densely, with nothing shared with the module but
    gauss_rule: the scale folded into the weights,
    s = -(1/lambda') mu V(mu / lambda'), the real and imaginary parts the two
    full real products (L * s.real) @ L.T and (L * s.imag) @ L.T, and the
    upper triangle mirrored by a sum."""
    lam = cfg.rotated_scale
    rule = gauss_rule(cfg.quad_size, cfg.nu)
    scaled = -(1.0 / lam) * (rule.nodes * eval_potential(model, rule.nodes / lam))
    vecs = rule.vectors[: cfg.n_basis]
    potential = np.empty((cfg.n_basis, cfg.n_basis), dtype=complex)
    potential.real = (vecs * scaled.real) @ vecs.T
    potential.imag = (vecs * scaled.imag) @ vecs.T
    return np.triu(potential) + np.triu(potential, 1).T


def dense_static(cfg, model):
    """S written out densely: -(lambda'/8)|J| + V, from the dense J."""
    lam = cfg.rotated_scale
    return -(lam / 8) * np.abs(build_j_matrix(cfg.n_basis, cfg.nu)) + dense_potential(cfg, model)


def closed_form_reference(cfg, energy):
    """Independent oracle for the rotated reference operator at E:
    diagonal lambda' (E/lambda'^2 - 1/8)(2n + nu + 1), off-diagonal
    -lambda' (E/lambda'^2 + 1/8) sqrt(k (k + nu))."""
    lam, nu = cfg.rotated_scale, cfg.nu
    n = np.arange(cfg.n_basis, dtype=float)
    k = np.arange(1, cfg.n_basis, dtype=float)
    diag = lam * (energy / lam**2 - 0.125) * (2 * n + nu + 1)
    off = -lam * (energy / lam**2 + 0.125) * np.sqrt(k * (k + nu))
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestReferenceMatrix:
    def test_hand_substitution(self):
        cfg = ChannelConfig(l=0, n_basis=3, scale=2.0, theta=0.0)
        mat = RotatedHamiltonian(cfg, ZERO_POTENTIAL).matrix(-0.5)
        # lam=2, E/lam^2 = -1/8: diagonal 2*(-1/4)*(2n+2), off-diagonal 0
        assert mat[0, 0] == pytest.approx(-1.0)
        assert mat[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_zero_energy_theta_scaling(self):
        cfg0 = ChannelConfig(l=1, n_basis=8, scale=3.0, theta=0.0)
        cfg1 = ChannelConfig(l=1, n_basis=8, scale=3.0, theta=0.4)
        assert np.allclose(
            RotatedHamiltonian(cfg1, ZERO_POTENTIAL).matrix(0.0),
            np.exp(-0.4j) * RotatedHamiltonian(cfg0, ZERO_POTENTIAL).matrix(0.0),
            atol=1e-14,
        )


class TestPotentialMatrix:
    def test_zero_potential(self):
        cfg = ChannelConfig(l=0, n_basis=5, scale=2.0, theta=0.5)
        rule = gauss_rule(5, cfg.nu)
        assert np.all(potential_matrix(cfg, ZERO_POTENTIAL, rule) == 0)

    def test_one_by_one(self):
        # mu_0 = 2, L_00 = 1: V_00 = -1 * 2 * V(2) = -60 exp(-2)
        cfg = ChannelConfig(l=0, n_basis=1, scale=1.0, theta=0.0)
        rule = gauss_rule(1, 1)
        mat = potential_matrix(cfg, R2_EXP_POTENTIAL, rule)
        assert mat[0, 0] == pytest.approx(-60 * np.exp(-2), rel=1e-13)

    def test_real_for_unrotated(self):
        cfg = ChannelConfig(l=0, n_basis=10, scale=4.0, theta=0.0)
        rule = gauss_rule(10, cfg.nu)
        mat = potential_matrix(cfg, R2_EXP_POTENTIAL, rule)
        assert np.all(mat.imag == 0)

    def test_exact_symmetry(self):
        cfg = ChannelConfig(l=0, n_basis=50, scale=20.0, theta=0.7)
        rule = gauss_rule(50, cfg.nu)
        mat = potential_matrix(cfg, R2_EXP_POTENTIAL, rule)
        assert np.array_equal(mat, mat.T)

    # Orders around and past the panel height: every entry of V is written,
    # by its panel or by the mirror, and each is the dense sum within the
    # rounding bound of any summation order, a multiple of
    # K eps sum_k |L[n,k] s_k L[m,k]| (BLAS may round a panel's product
    # otherwise than the full one's; at one thread the gaps were under
    # 0.34 eps sum_k).
    @pytest.mark.parametrize("n", [63, 64, 65, 129, 200])
    def test_panels_cover_the_matrix(self, n):
        cfg = ChannelConfig(l=1, n_basis=n, scale=20.0, theta=0.7, quad_size=n + 7)
        rule = gauss_rule(cfg.quad_size, cfg.nu)
        mat = potential_matrix(cfg, GAUSSIAN_WELL_POTENTIAL, rule)
        lam = cfg.rotated_scale
        weights = np.abs(rule.nodes * eval_potential(GAUSSIAN_WELL_POTENTIAL, rule.nodes / lam) / lam)
        vecs = np.abs(rule.vectors[:n])
        bound = 4 * rule.size * np.finfo(float).eps * ((vecs * weights) @ vecs.T)
        assert np.array_equal(mat, mat.T)
        assert np.all(np.abs(mat - dense_potential(cfg, GAUSSIAN_WELL_POTENTIAL)) <= bound)

    def test_manual_quadrature_oracle(self):
        # element-by-element sum with explicit complex nodes
        cfg = ChannelConfig(l=1, n_basis=3, scale=5.0, theta=0.3)
        rule = gauss_rule(3, cfg.nu)
        lam = cfg.rotated_scale
        got = potential_matrix(cfg, R2_EXP_POTENTIAL, rule)
        for n in range(3):
            for m in range(3):
                acc = 0.0
                for k in range(3):
                    r = rule.nodes[k] / lam
                    acc += (
                        rule.vectors[n, k] * rule.vectors[m, k]
                        * rule.nodes[k] * (7.5 * r * r * np.exp(-r))
                    )
                assert got[n, m] == pytest.approx(-acc / lam, rel=1e-13)

    def test_mismatched_nu_rejected(self):
        cfg = ChannelConfig(l=1, n_basis=5, scale=2.0)
        with pytest.raises(ConfigError):
            potential_matrix(cfg, R2_EXP_POTENTIAL, gauss_rule(5, 1))

    def test_undersized_rule_rejected(self):
        cfg = ChannelConfig(l=0, n_basis=5, scale=2.0)
        with pytest.raises(ConfigError):
            potential_matrix(cfg, R2_EXP_POTENTIAL, gauss_rule(4, 1))

    def test_quadrature_convergence_with_oversampling(self):
        n = 50
        cfg1 = ChannelConfig(l=0, n_basis=n, scale=20.0, theta=0.7, quad_size=3 * n)
        cfg2 = ChannelConfig(l=0, n_basis=n, scale=20.0, theta=0.7, quad_size=6 * n)
        m1 = potential_matrix(cfg1, R2_EXP_POTENTIAL, gauss_rule(3 * n, 1))
        m2 = potential_matrix(cfg2, R2_EXP_POTENTIAL, gauss_rule(6 * n, 1))
        assert np.abs(m1 - m2).max() < 1e-10


class TestFullMatrix:
    def test_reduces_to_reference(self):
        # with V = 0 the operator is exactly tridiagonal and is the reference
        cfg = ChannelConfig(l=0, n_basis=10, scale=2.0, theta=0.2)
        e = 1.0 - 0.5j
        mat = RotatedHamiltonian(cfg, ZERO_POTENTIAL).matrix(e)
        assert np.array_equal(mat, np.triu(np.tril(mat, 1), -1))
        direct = closed_form_reference(cfg, e)
        assert np.abs(mat - direct).max() <= 1e-12 * max(1, np.abs(direct).max())

    def test_symmetry_rotated(self):
        cfg = ChannelConfig(l=0, n_basis=50, scale=20.0, theta=0.7)
        mat = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL).matrix(3.0 - 0.01j)
        assert np.array_equal(mat, mat.T)

    def test_additivity(self):
        cfg = ChannelConfig(l=0, n_basis=6, scale=2.0, theta=0.1)
        rule = gauss_rule(6, 1)
        e = 0.7 - 0.2j
        assert RotatedHamiltonian(cfg, R2_EXP_POTENTIAL).matrix(e)[0, 0] == pytest.approx(
            RotatedHamiltonian(cfg, ZERO_POTENTIAL).matrix(e)[0, 0]
            + potential_matrix(cfg, R2_EXP_POTENTIAL, rule)[0, 0]
        )


class TestEnergyDerivative:
    def test_one_by_one(self):
        cfg = ChannelConfig(l=0, n_basis=1, scale=1.0, theta=0.0)
        ham = RotatedHamiltonian(cfg, ZERO_POTENTIAL)
        assert ham.apply_derivative(np.ones(1, dtype=complex))[0] == pytest.approx(2.0)

    def test_finite_difference(self):
        cfg = ChannelConfig(l=2, n_basis=20, scale=7.0, theta=0.4)
        ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
        e, h = 1.5 - 0.3j, 1e-6
        fd = (ham.matrix(e + h) - ham.matrix(e - h)) / (2 * h)
        ref = dense_derivative(cfg)
        scale = np.abs(ref).max()
        assert np.abs(fd - ref).max() <= 1e-8 * scale

    def test_theta_scaling(self):
        cfg0 = ChannelConfig(l=0, n_basis=8, scale=3.0, theta=0.0)
        cfg1 = ChannelConfig(l=0, n_basis=8, scale=3.0, theta=0.6)
        x = np.linspace(1.0, 2.0, 8) * (1 + 0.5j)
        assert np.allclose(
            RotatedHamiltonian(cfg1, ZERO_POTENTIAL).apply_derivative(x),
            np.exp(0.6j) * RotatedHamiltonian(cfg0, ZERO_POTENTIAL).apply_derivative(x),
            atol=1e-14,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(0, 3),
        n=st.integers(1, 200),
        scale=st.floats(1.0, 40.0),
        theta=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_band_product_matches_dense(self, l, n, scale, theta, seed):
        # D x sums at most three products per entry, so the band product and
        # the dense one agree to a few ulps of sum |D| |x|
        cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        dense = dense_derivative(cfg)
        band = RotatedHamiltonian(cfg, ZERO_POTENTIAL).apply_derivative(x)
        bound = 4 * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
        assert np.all(np.abs(band - dense @ x) <= bound)


class TestRotatedHamiltonian:
    def test_matches_direct_assembly(self):
        cfg = ChannelConfig(l=1, n_basis=30, scale=10.0, theta=0.5)
        rule = gauss_rule(30, cfg.nu)
        ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
        for e in (0.0, 2.5 - 1.0j, -0.5):
            direct = closed_form_reference(cfg, e) + potential_matrix(cfg, R2_EXP_POTENTIAL, rule)
            assert np.abs(ham.matrix(e) - direct).max() <= 1e-12 * max(1, np.abs(direct).max())

    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(0, 3),
        n=st.integers(1, 60),
        scale=st.floats(1.0, 40.0),
        theta=st.floats(0.0, 1.2),
        energy=st.complex_numbers(max_magnitude=1e3),
        z=st.sampled_from([-1.0, 0.0, 1.0, 2.5]),
        model=st.sampled_from([ZERO_POTENTIAL, R2_EXP_POTENTIAL]),
    )
    def test_matrix_is_the_dense_expression(self, l, n, scale, theta, energy, z, model):
        cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta)
        ham = RotatedHamiltonian(cfg, model)
        d_mat = build_j_matrix(n, cfg.nu) / cfg.rotated_scale
        mat = ham.matrix(energy, z)
        assert np.array_equal(mat, dense_static(cfg, model) + energy * d_mat - z * np.eye(n))
        assert np.array_equal(mat, mat.T)
        assert mat.flags.writeable
        assert not np.shares_memory(mat, ham.matrix(energy, z))

    # S is built from J's bands in place; its bits, signed zeros included,
    # are those of the dense sum
    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(0, 3),
        n=st.integers(1, 60),
        oversample=st.integers(0, 20),
        scale=st.floats(1.0, 40.0),
        theta=st.floats(0.0, 0.7),  # the Gaussian well overflows past pi/4
        model=st.sampled_from([ZERO_POTENTIAL, R2_EXP_POTENTIAL, GAUSSIAN_WELL_POTENTIAL]),
    )
    def test_static_is_the_dense_sum_bit_for_bit(self, l, n, oversample, scale, theta, model):
        cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta, quad_size=n + oversample)
        expected = dense_static(cfg, model)
        assert RotatedHamiltonian(cfg, model).matrix(0.0).tobytes() == expected.tobytes()
        potential = potential_matrix(cfg, model, gauss_rule(cfg.quad_size, cfg.nu))
        assert np.array_equal(potential, potential.T)

    def test_matrix_into_out(self):
        cfg = ChannelConfig(l=1, n_basis=12, scale=5.0, theta=0.4)
        ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
        out = np.full((12, 12), np.nan, dtype=complex)
        assert ham.matrix(2.0 - 1.0j, 0.5, out=out) is out
        assert np.array_equal(out, ham.matrix(2.0 - 1.0j, 0.5))
        for bad in (np.zeros((12, 11), complex), np.zeros((12, 12)),
                    np.zeros((12, 12), complex, order="F")):
            with pytest.raises(ValueError, match="out must be"):
                ham.matrix(2.0, out=bad)

    def test_derivative_shared(self):
        cfg = ChannelConfig(l=0, n_basis=10, scale=2.0, theta=0.3)
        ham = RotatedHamiltonian(cfg, ZERO_POTENTIAL)
        columns = [ham.apply_derivative(unit) for unit in np.eye(10, dtype=complex)]
        assert np.array_equal(np.column_stack(columns), dense_derivative(cfg))
        for band in (ham._d_diag, ham._d_off):
            with pytest.raises(ValueError):
                band[0] = 0.0


class TestBandAssembly:
    # S is built in V's memory, and V's two real products run by row panels,
    # so V is the one operator-sized array alive during assembly; the rest
    # is two panel temporaries of PANEL_ROWS rows of reals (quad_size = N),
    # 0.60 x 16N^2 at N = 150 and 0.38 at N = 200. One complex product,
    # with numpy's complex copy of L.T, peaked at 3.02; formed densely, with
    # |J| and a mirrored copy, the assembly peaked at 5.9.
    @pytest.mark.parametrize("n", [150, 200])
    def test_peak_memory_is_one_operator_and_two_panels(self, n):
        cfg = ChannelConfig(l=0, n_basis=n, scale=20.0, theta=0.7)
        gauss_rule(cfg.quad_size, cfg.nu)  # the cached rule every assembly shares
        tracemalloc.start()
        try:
            RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 16 * n * n

    def test_no_dense_j_is_formed(self, monkeypatch):
        if lapack._ilp64() is None:
            pytest.skip("numpy's OpenBLAS exports no ILP64 routines here")

        def dense_j(*args):
            raise AssertionError("dense J formed")

        monkeypatch.setattr(basis, "build_j_matrix", dense_j)
        gauss_rule.cache_clear()
        try:
            cfg = ChannelConfig(l=0, n_basis=60, scale=20.0, theta=0.7)
            gauss_rule(cfg.quad_size, cfg.nu)
            ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
            assert refine_resonance(3.43 - 0.013j, 0.0, cfg, R2_EXP_POTENTIAL, ham).converged
            assert len(poles(ham, 0.0)) == 60
        finally:
            gauss_rule.cache_clear()
