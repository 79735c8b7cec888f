"""Acceptance gate: the nine headline checks, one test and one printed
verdict line each. These run the full production path (assembly, eigensolve,
sweep, refinement, stability) at production parameters, so this module is
slower than the unit tests."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from chargeplane.basis import ChannelConfig, build_j_matrix, gauss_rule
from chargeplane.eigensolver import eigen_decompose, eigenvalue_derivative
from chargeplane.hamiltonian import RotatedHamiltonian, potential_matrix
from chargeplane.potential import GAUSSIAN_WELL_POTENTIAL, R2_EXP_POTENTIAL, PotentialModel
from chargeplane.reference import run_table
from chargeplane.resonance import refine_resonance, stability_reports
from chargeplane.trajectory import EnergyGrid, sweep


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def _decade(x):
    """A non-negative figure as its decade upper bound, "<= 1e-13" for
    5.9e-14, so rounding noise that moves with the BLAS thread count prints
    the same; zero, None and non-finite figures print as they are."""
    if x is None or not 0 < x < np.inf:
        return f"= {x}"
    return f"<= 1e{math.ceil(math.log10(x))}"


def _production_cfg(l=0):
    return ChannelConfig(l=l, n_basis=200, scale=20.0, theta=0.7, quad_size=200)


def test_criterion_1_benchmark_table_reproduction():
    rows = run_table("table1")
    worst = max(
        max(abs(r.computed_e_r - r.ref_e_r), abs(r.computed_gamma - r.ref_gamma))
        for r in rows
    )
    ok = all(r.ok for r in rows) and worst <= 1e-7
    _verdict(1, ok, f"6 rows, worst |delta| = {worst:.2e}, tol 1e-7")


def test_criterion_2_negative_and_positive_charge_poles():
    expected = {
        -8.0: 1.287274955 - 2.971759279j,
        -4.0: 3.125581370 - 3.023378045j,
        9.0: 9.733679948 - 2.988524088j,
    }
    cfg = _production_cfg()
    worst = 0.0
    for target, e_ref in expected.items():
        res = refine_resonance(e_ref, target, cfg, R2_EXP_POTENTIAL)
        assert res.converged
        worst = max(worst, abs(res.energy - e_ref))
    _verdict(2, worst <= 1e-7, f"3 targets, worst |dE| = {worst:.2e}, tol 1e-7")


def test_criterion_3_gaussian_well_f_wave_pole():
    # Expected pole for the two-Gaussian well at l = 3, target charge 0.
    e_ref = 7.09172304 - 2.00173429j
    cfg = _production_cfg(l=3)
    res = refine_resonance(e_ref, 0.0, cfg, GAUSSIAN_WELL_POTENTIAL)
    err = abs(res.energy - e_ref) if res.converged else np.inf
    _verdict(
        3,
        res.converged and err <= 1e-5,
        f"refined to {res.energy:.8f}, |dE| = {err:.2e}, tol 1e-5",
    )


def test_criterion_4_printed_digit_spot_checks():
    rows = run_table("table2_spot")
    bad = [r for r in rows if not r.ok]
    _verdict(4, not bad, f"{len(rows) - len(bad)}/{len(rows)} rows within 5 units of last digit")


def test_criterion_5_stability_plateau():
    cfg = _production_cfg()
    res = refine_resonance(3.43 - 0.013j, 0.0, cfg, R2_EXP_POTENTIAL)
    assert res.converged
    report = stability_reports(
        [res], cfg, R2_EXP_POTENTIAL, [10.0, 20.0, 40.0], [0.5, 0.7, 0.9], [200]
    )[0]
    smaller = refine_resonance(
        res.energy, 0.0,
        ChannelConfig(l=0, n_basis=150, scale=20.0, theta=0.7, quad_size=150),
        R2_EXP_POTENTIAL,
    )
    n_shift = abs(smaller.energy - res.energy) if smaller.converged else np.inf
    ok = report.plateau and report.max_deviation <= 1e-8 and n_shift <= 1e-8
    _verdict(
        5,
        ok,
        f"9-point grid max |dE| {_decade(report.max_deviation)}, "
        f"N = 150 shift {_decade(n_shift)}, tol 1e-8",
    )


def test_criterion_6_pure_coulomb_exactness():
    worst = 0.0
    for l in range(4):
        for energy in (-0.5, -0.125):
            kappa = np.sqrt(-2.0 * energy)
            cfg = ChannelConfig(l=l, n_basis=100, scale=2 * kappa, theta=0.0, quad_size=100)
            mat = RotatedHamiltonian(cfg, PotentialModel()).matrix(energy)
            off = mat - np.diag(np.diag(mat))
            exact = -kappa * (np.arange(100) + l + 1)
            worst = max(
                worst,
                float(np.abs(off).max()),
                float(np.abs(np.diag(mat) - exact).max()),
            )
    _verdict(6, worst <= 1e-13, f"max diagonal/off-diagonal error {worst:.2e}, tol 1e-13")


def test_criterion_7_quadrature_exactness():
    # moments j = 0, 1, 2 against the identity, J, and J^2
    worst = 0.0
    for nu in (1, 3, 7):
        rule = gauss_rule(50, nu)
        j_mat = build_j_matrix(50, nu)
        refs = (np.eye(50), j_mat, j_mat @ j_mat)
        for j, ref in enumerate(refs):
            approx = (rule.vectors * rule.nodes**j) @ rule.vectors.T
            scale = max(1.0, float(np.abs(ref).max()))
            worst = max(worst, float(np.abs(approx - ref).max()) / scale)

    # potential matrix at N = 4 against direct numerical integration of
    # -(1/lam) A_n A_m Int x^nu e^-x L_n L_m [x V(x/lam)] dx
    nu, lam = 1, 4.0
    cfg = ChannelConfig(l=0, n_basis=4, scale=lam, theta=0.0, quad_size=200)
    mat = potential_matrix(cfg, R2_EXP_POTENTIAL, gauss_rule(200, nu))
    worst_int = 0.0
    for n in range(4):
        for m in range(4):
            norm = np.exp(
                0.5 * (special.gammaln(n + 1) - special.gammaln(n + nu + 1))
                + 0.5 * (special.gammaln(m + 1) - special.gammaln(m + nu + 1))
            )

            def integrand(x):
                v = 7.5 * (x / lam) ** 2 * np.exp(-x / lam)
                return (
                    x**nu * np.exp(-x)
                    * special.eval_genlaguerre(n, nu, x)
                    * special.eval_genlaguerre(m, nu, x)
                    * x * v
                )

            ref, _ = integrate.quad(integrand, 0, np.inf, limit=200)
            worst_int = max(worst_int, abs(mat[n, m].real - (-(norm / lam) * ref)))
    ok = worst <= 1e-11 and worst_int <= 1e-10
    _verdict(
        7,
        ok,
        f"moment error {worst:.2e} (tol 1e-11), integral error {worst_int:.2e} (tol 1e-10)",
    )


def test_criterion_8_eigensolver_contract():
    # residual bound on production matrices from the benchmark contexts
    worst_resid = 0.0
    for l, energy in ((0, 3.43 - 0.013j), (0, 4.83 - 1.12j), (2, 5.0 - 2.0j)):
        ham = RotatedHamiltonian(_production_cfg(l=l), R2_EXP_POTENTIAL)
        mat = ham.matrix(energy)
        es = eigen_decompose(mat)
        residuals = np.linalg.norm(mat @ es.vectors - es.vectors * es.values, axis=0)
        worst_resid = max(worst_resid, float(residuals.max()) / np.linalg.norm(mat))

    # analytic eigenvalue derivative vs central differences on random
    # affine complex-symmetric families M(t) = A + t B
    rng = np.random.default_rng(31)
    worst_rel = 0.0
    for _ in range(100):
        a = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        b = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        a = (a + a.T) / 2
        b = (b + b.T) / 2
        h = 1e-6
        es0 = eigen_decompose(a)
        x = es0.vectors[:, 0]
        analytic = eigenvalue_derivative(b, x)
        z_plus = eigen_decompose(a + h * b).values
        z_minus = eigen_decompose(a - h * b).values
        z0 = es0.values[0]
        fd = (
            z_plus[np.argmin(np.abs(z_plus - z0))]
            - z_minus[np.argmin(np.abs(z_minus - z0))]
        ) / (2 * h)
        worst_rel = max(worst_rel, abs(analytic - fd) / max(abs(fd), 1.0))
    ok = worst_resid <= 1e-10 and worst_rel <= 1e-6
    _verdict(
        8,
        ok,
        f"max residual {worst_resid:.2e} x ||M||_F (tol 1e-10), "
        f"derivative error {worst_rel:.2e} (tol 1e-6)",
    )


def test_criterion_9_no_real_axis_crossings_on_real_energies():
    cfg = _production_cfg()
    grid = EnergyGrid(re_start=0.05, re_end=10.0, steps=101, im_part=0.0)
    trajectories = sweep(cfg, R2_EXP_POTENTIAL, grid)
    crossings = 0
    for t in trajectories:
        im = t.z_values.imag
        crossings += int(np.count_nonzero(im[:-1] * im[1:] < 0))
    _verdict(9, crossings == 0, f"{crossings} crossings over E in (0, 10]")
