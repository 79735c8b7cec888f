"""Tests for pole listing, Newton refinement, and stability scans, with
crossing detection on trajectory sweeps and the QZ solve of the unreduced
pencil as independent oracles."""

import itertools
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import zsytrf, zsytrf_lwork, zsytrs
from scipy.optimize import linear_sum_assignment
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chargeplane import lapack, resonance
from chargeplane.basis import ChannelConfig, build_j_matrix
from chargeplane.errors import ChargePlaneError, EigensolverError
from chargeplane.hamiltonian import RotatedHamiltonian
from chargeplane.potential import GAUSSIAN_WELL_POTENTIAL, R2_EXP_POTENTIAL, PotentialModel
from chargeplane.reference import DEFAULT_CHANNEL, run_table
from chargeplane.resonance import (
    MAX_ITER,
    REFACTOR_RATIO,
    RESIDUAL_TOL,
    Resonance,
    StabilityReport,
    _refine_at_point,
    auto_search,
    outside_exposure_window,
    poles,
    refine_resonance,
    shared_hamiltonian,
    stability_reports,
    stability_scan,
)
from chargeplane.trajectory import EnergyGrid, Trajectory, sweep

EMPTY = PotentialModel(terms=())


def _cfg(l=0, n=100):
    return ChannelConfig(l=l, n_basis=n, scale=20.0, theta=0.7, quad_size=n)


# Crossing detection on sampled trajectories, the method's own picture, kept
# as an oracle that knows nothing of the pencil.
@dataclass(frozen=True)
class CrossingCandidate:
    """A bracketed real-axis crossing of one branch near a target charge."""

    branch_id: int
    e_lo: complex
    e_hi: complex
    z_at_crossing: float
    z_target: float
    fraction: float = 0.5

    @property
    def e_guess(self) -> complex:
        """Energy at the interpolated crossing point."""
        return self.e_lo + self.fraction * (self.e_hi - self.e_lo)


def detect_crossings(
    trajectories: list[Trajectory],
    z_targets,
    window: float = 0.5,
) -> list[CrossingCandidate]:
    """Find sign changes of Im Z along each branch near the target charges.

    The crossing abscissa is linearly interpolated; a candidate is emitted
    for every target within `window` of it.
    """
    candidates = []
    for traj in trajectories:
        z = traj.z_values
        e = traj.energies
        im = z.imag
        for i in range(len(z) - 1):
            if im[i] * im[i + 1] >= 0:
                continue
            t = im[i] / (im[i] - im[i + 1])
            z_cross = float((z[i] + t * (z[i + 1] - z[i])).real)
            for target in z_targets:
                if abs(z_cross - target) <= window:
                    candidates.append(
                        CrossingCandidate(
                            branch_id=traj.branch_id,
                            e_lo=complex(e[i]),
                            e_hi=complex(e[i + 1]),
                            z_at_crossing=z_cross,
                            z_target=float(target),
                            fraction=float(t),
                        )
                    )
    return candidates


class TestDetectCrossings:
    def test_constructed_branch(self):
        # branch crosses the real axis exactly at Z = 1 between the samples
        energies = np.array([1.0 - 1j, 2.0 - 1j, 3.0 - 1j])
        z = np.array([0.8 - 0.1j, 1.2 + 0.1j, 1.6 + 0.3j])
        traj = Trajectory(branch_id=4, energies=energies, z_values=z)
        cands = detect_crossings([traj], [1.0])
        assert len(cands) == 1
        c = cands[0]
        assert c.branch_id == 4
        assert c.z_at_crossing == pytest.approx(1.0)
        assert c.z_target == 1.0
        assert c.e_guess == pytest.approx(1.5 - 1j)

    def test_window_filters_far_targets(self):
        energies = np.array([1.0, 2.0])
        z = np.array([0.8 - 0.1j, 1.2 + 0.1j])
        traj = Trajectory(branch_id=0, energies=energies, z_values=z)
        assert detect_crossings([traj], [3.0], window=0.5) == []
        assert detect_crossings([traj], [3.0], window=2.5) != []

    def test_no_sign_change_no_candidates(self):
        energies = np.array([1.0, 2.0, 3.0])
        z = np.array([1.0 + 0.1j, 1.0 + 0.2j, 1.0 + 0.05j])
        traj = Trajectory(branch_id=0, energies=energies, z_values=z)
        assert detect_crossings([traj], [1.0]) == []


class TestPoles:
    def test_sweep_crossings_refine_onto_poles(self):
        # the scan configuration: crossings read off sampled trajectories at
        # a few Im E, refined, must each be a pencil eigenvalue
        cfg = _cfg(n=150)
        ham = shared_hamiltonian(cfg, R2_EXP_POTENTIAL)
        listed = poles(ham, 0.0)
        checked = []
        for im_part in (-0.025, -1.6, -3.2, -6.4):
            grid = EnergyGrid(0.0, 10.0, 51, im_part)
            trajectories = sweep(cfg, R2_EXP_POTENTIAL, grid)
            for cand in detect_crossings(trajectories, [0.0], window=1.0):
                res = refine_resonance(cand.e_guess, 0.0, cfg, R2_EXP_POTENTIAL, ham)
                if res.converged and not outside_exposure_window(res.energy, cfg.theta):
                    checked.append(res.energy)
                    assert np.abs(listed - res.energy).min() <= 1e-9
        # the four plateau poles below Re E = 10 and a near-threshold artifact
        # at -0.0092 - 0.0332i
        assert len(checked) == 5

    @settings(max_examples=40, deadline=None)
    @given(
        l=st.integers(0, 3),
        n=st.integers(5, 40),
        scale=st.floats(5.0, 40.0),
        theta=st.floats(0.0, 1.2),
        z_target=st.floats(-10.0, 10.0),
    )
    def test_every_pole_has_the_target_charge(self, l, n, scale, theta, z_target):
        cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta)
        ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
        listed = poles(ham, z_target)
        assert len(listed) == n
        for energy in listed:
            mat = ham.matrix(energy)
            charges = np.linalg.eigvals(mat)
            assert np.abs(charges - z_target).min() <= 1e-9 * np.linalg.norm(mat)

    def test_sorted_and_finite(self):
        listed = poles(RotatedHamiltonian(_cfg(n=40), R2_EXP_POTENTIAL), 0.0)
        assert np.all(np.isfinite(listed))
        order = np.lexsort((listed.imag, listed.real))
        assert np.array_equal(order, np.arange(len(listed)))

    @settings(max_examples=40, deadline=None)
    @given(
        l=st.integers(0, 3),
        n=st.integers(5, 60),
        scale=st.floats(5.0, 40.0),
        theta=st.floats(0.0, 1.2),
        z_target=st.floats(-10.0, 10.0),
    )
    def test_agrees_with_qz(self, l, n, scale, theta, z_target):
        # the QZ solve of the unreduced pencil (S - Z_t, -D) is the oracle.
        # Over 1,500 random draws from these ranges the one-to-one pairing
        # was at worst 8.4e-13 of the largest |E|, and the bound is 12 times
        # that. It is on the scale of the spectrum because single small poles
        # of this non-normal problem differed by up to 2.5e-8 of their own size.
        cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta)
        ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
        listed = poles(ham, z_target)
        qz = scipy.linalg.eigvals(ham.matrix(0.0, z_target), -dense_derivative(ham))
        assert len(listed) == n and np.all(np.isfinite(qz))
        distance = np.abs(listed[:, None] - qz[None, :])
        rows, cols = linear_sum_assignment(distance)
        assert distance[rows, cols].max() <= 1e-11 * np.abs(qz).max()

    def test_eigensolver_failure_is_eigensolver_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        ham = RotatedHamiltonian(_cfg(n=20), R2_EXP_POTENTIAL)
        with pytest.raises(EigensolverError, match="at order 20: .*did not converge"):
            poles(ham, 0.0)

    @pytest.mark.parametrize("z_target", [np.inf, -np.inf, np.nan])
    def test_nonfinite_target_raises_before_lapack(self, monkeypatch, z_target):
        ham = RotatedHamiltonian(_cfg(n=20), R2_EXP_POTENTIAL)
        monkeypatch.setattr(np.linalg, "eigvals", None)
        with pytest.raises(EigensolverError, match="non-finite target charge"):
            poles(ham, z_target)


class TestRefineResonance:
    def test_hydrogen_bound_state(self):
        # with V = 0 the Z = -1 crossing of the ground branch is the exact
        # bound state E = -1/2, a pole with zero width
        res = refine_resonance(-0.4 + 0.0j, -1.0, _cfg(), EMPTY)
        assert res.converged
        assert res.energy.real == pytest.approx(-0.5, abs=1e-10)
        assert abs(res.energy.imag) < 1e-10
        assert res.gamma == pytest.approx(0.0, abs=2e-10)

    def test_idempotent_on_converged_pole(self):
        cfg = _cfg(l=0, n=150)
        first = refine_resonance(3.4 - 0.01j, 0.0, cfg, R2_EXP_POTENTIAL)
        assert first.converged
        second = refine_resonance(first.energy, 0.0, cfg, R2_EXP_POTENTIAL)
        assert second.converged
        assert second.iterations >= 1  # a real re-solve, not an echo of the guess
        assert abs(second.energy - first.energy) < 1e-12

    def test_known_sharp_pole(self):
        cfg = _cfg(l=0, n=150)
        res = refine_resonance(3.43 - 0.01j, 0.0, cfg, R2_EXP_POTENTIAL)
        assert res.converged
        assert res.e_r == pytest.approx(3.426390331, abs=1e-6)
        assert res.gamma == pytest.approx(0.025549, abs=1e-5)

    def test_reports_nonconvergence_in_band(self):
        # a wild guess far from any pole basin must not raise
        cfg = _cfg(n=60)
        res = refine_resonance(500.0 - 200.0j, 0.0, cfg, R2_EXP_POTENTIAL)
        assert isinstance(res.converged, bool)

    @pytest.mark.parametrize("guess", [complex(np.nan, 0.0), complex(3.4, np.inf)])
    def test_nonfinite_guess_raises_without_warnings(self, guess):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError):
                refine_resonance(guess, 0.0, _cfg(n=20), R2_EXP_POTENTIAL)
            with pytest.raises(EigensolverError):
                RotatedHamiltonian(_cfg(n=20), R2_EXP_POTENTIAL).matrix(guess)

    @pytest.mark.parametrize("z_target", [np.inf, -np.inf, np.nan])
    def test_nonfinite_target_raises_before_assembly(self, z_target):
        with pytest.raises(EigensolverError, match="non-finite target charge"):
            refine_resonance(3.4 - 0.01j, z_target, _cfg(n=20), R2_EXP_POTENTIAL)
        assert shared_hamiltonian.cache_info().currsize == 0


def dense_derivative(ham) -> np.ndarray:
    """D = J / lambda' as a dense matrix."""
    return build_j_matrix(ham.cfg.n_basis, ham.cfg.nu) / ham.cfg.rotated_scale


# The dense loop that forms a fresh M(E) - Z_t with an identity shift at
# every step, takes the residual by a third product, and factors a C-ordered
# copy through scipy's LDL^T wrappers with the same blocked workspace, under
# the same refactoring rule: the oracle whose every energy, step count and
# verdict the lean loop must reproduce exactly.
def dense_refine_resonance(guess, z_target, cfg, model, ham) -> Resonance:
    shift = z_target * np.eye(cfg.n_basis)
    static = ham.matrix(0.0)
    work, _ = zsytrf_lwork(cfg.n_basis)

    def factor(mat):
        ldu, ipiv, info = zsytrf(mat, lwork=int(work.real))
        # D: its 1 x 1 pivots, and each 2 x 2 block (ipiv < 0 at both rows)
        # with its off-diagonal entry in the upper triangle
        d, k = np.zeros_like(ldu), 0
        while k < len(mat):
            step = 1 if ipiv[k] > 0 else 2
            d[k:k + step, k:k + step] = np.triu(ldu[k:k + step, k:k + step])
            k += step
        for k in range(len(mat)):
            if d[k, k] == 0 and ipiv[k] > 0:  # an exactly zero pivot, info > 0
                ldu[k, k] = np.finfo(float).eps * np.abs(d).max()
        return ldu, ipiv

    def solve(factors, rhs):
        x, _ = zsytrs(*factors, rhs)
        norm = np.linalg.norm(x)
        if not np.isfinite(norm):
            raise EigensolverError(f"non-finite solve at order {len(x)}")
        return x / norm

    factors = factor(ham.matrix(guess) - shift)
    rhs = np.ones(cfg.n_basis, dtype=complex)
    previous = np.inf
    for iterations in range(1, MAX_ITER + 1):
        x = solve(factors, rhs)
        rhs = ham.apply_derivative(x)
        energy = complex(-(x @ (static @ x - z_target * x)) / (x @ rhs))
        mat = ham.matrix(energy) - shift
        residual = float(np.linalg.norm(mat @ x))
        if residual <= RESIDUAL_TOL:
            return Resonance(z_target, cfg.l, energy, True, iterations, residual)
        if not residual < REFACTOR_RATIO * previous:
            factors = factor(mat)
        previous = residual
    return Resonance(z_target, cfg.l, energy, False, MAX_ITER, residual)


# The same loop with a general LU factorization and a dense D, as refinement
# ran before it used the symmetry of M(E) - Z_t.
def lu_refine_resonance(guess, z_target, cfg, model, ham) -> Resonance:
    shift = z_target * np.eye(cfg.n_basis)
    shifted = ham.matrix(0.0) - shift
    deriv_mat = dense_derivative(ham)

    def solve(lu, rhs):
        x = lu_solve(lu, rhs, check_finite=False)
        norm = np.linalg.norm(x)
        if not np.isfinite(norm):
            raise EigensolverError(f"non-finite solve at order {len(x)}")
        return x / norm

    lu = lu_factor(ham.matrix(guess) - shift, check_finite=False)
    rhs = np.ones(cfg.n_basis, dtype=complex)
    previous = np.inf
    for iterations in range(1, MAX_ITER + 1):
        x = solve(lu, rhs)
        rhs = deriv_mat @ x
        energy = complex(-(x @ (shifted @ x)) / (x @ rhs))
        mat = ham.matrix(energy) - shift
        residual = float(np.linalg.norm(mat @ x))
        if residual <= RESIDUAL_TOL:
            return Resonance(z_target, cfg.l, energy, True, iterations, residual)
        if not residual < REFACTOR_RATIO * previous:
            lu = lu_factor(mat, check_finite=False)
        previous = residual
    return Resonance(z_target, cfg.l, energy, False, MAX_ITER, residual)


# Rayleigh-quotient iteration that refactors at every step, after three
# inverse-iteration solves at the guess: the oracle that the refactoring
# rule changes what a refinement costs, not the pole it finds.
def rqi_refine_resonance(guess, z_target, cfg, model, ham) -> Resonance:
    mat = ham.matrix(guess, z_target)
    factors = lapack.ldlt(mat)
    x = np.ones(cfg.n_basis, dtype=complex)
    for _ in range(3):
        x = resonance._ldlt_solve(factors, x)
    for iterations in range(1, MAX_ITER + 1):
        sx = ham.apply_static(x) - z_target * x
        dx = ham.apply_derivative(x)
        energy = complex(-(x @ sx) / (x @ dx))
        residual = float(np.linalg.norm(sx + energy * dx))
        if residual <= RESIDUAL_TOL or iterations == MAX_ITER:
            break
        mat = ham.matrix(energy, z_target, out=mat)
        x = resonance._ldlt_solve(lapack.ldlt(mat), dx)
    return Resonance(z_target, cfg.l, energy, residual <= RESIDUAL_TOL, iterations, residual)


def _record_factorizations(monkeypatch) -> list:
    """The pivot diagonal of every later lapack.ldlt call; the factors lie in
    the factored matrix's own memory."""
    factored = []
    original = lapack.ldlt

    def recording(mat):
        factors = original(mat)
        factored.append(np.diagonal(mat).copy())
        return factors

    monkeypatch.setattr(lapack, "ldlt", recording)
    return factored


class _PoleAtGuess:
    """S a fixed matrix whose LDL^T meets an exactly zero pivot, and D = I,
    so E = 0 is a pole of Z_t = 0 to the last bit: M(0) - Z_t is S itself."""

    def __init__(self, static):
        self.static = np.asarray(static, dtype=complex)

    def matrix(self, energy, z=0.0, out=None):
        return self.static + (energy - z) * np.eye(len(self.static))

    def apply_static(self, x):
        return self.static @ x

    def apply_derivative(self, x):
        return x.copy()


class _PoleAtIterate:
    """S = diag(0, 1, 2) and D = I, so E = 0 is a pole of Z_t = 0. The first
    M(E) - Z_t, at the guess, is diag(0.8, 1.8, 2.8), a shift whose inverse
    iteration converges too slowly to keep (the ratio 0.8 / 1.8 exceeds
    REFACTOR_RATIO); every later one is exactly diag(0, 1, 2), as if the
    iterate landed on the pole to the last bit."""

    static = np.diag([0.0, 1.0, 2.0]).astype(complex)

    def __init__(self):
        self.calls = 0

    def matrix(self, energy, z=0.0, out=None):
        self.calls += 1
        return self.static + (0.8 * np.eye(3) if self.calls == 1 else 0.0)

    def apply_static(self, x):
        return self.static @ x

    def apply_derivative(self, x):
        return x.copy()


EPS = np.finfo(float).eps

# Bunch-Kaufman on the upper triangle starts at the last column: a zero
# (3, 3) entry against the larger (2, 3) one makes rows 2-3 a 2 x 2 pivot,
# whose Schur complement 1/8 - 2 (1/4)(1/4) leaves an exactly zero pivot.
# D's diagonal is then all zeros. The null vector (4, -1, -1) is not
# orthogonal to the ones vector, refinement's first right-hand side.
TWO_BY_TWO_SINGULAR = [[0.125, 0.25, 0.25], [0.25, 0.0, 1.0], [0.25, 1.0, 0.0]]


_DRAWS = dict(
    l=st.integers(0, 2),
    n=st.integers(5, 60),
    scale=st.floats(10.0, 40.0),
    theta=st.floats(0.1, 1.0),
    z_target=st.sampled_from([-1.0, 0.0, 1.0]),
    pick=st.integers(0, 10**6),
    rel=st.complex_numbers(max_magnitude=1e-2),
)


def _drawn_guess(l, n, scale, theta, z_target, pick, rel):
    """A channel and a guess that perturbs one of its pencil poles with
    |E| <= 100, the region any scan box lies in."""
    cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta)
    ham = RotatedHamiltonian(cfg, R2_EXP_POTENTIAL)
    listed = poles(ham, z_target)
    listed = listed[np.abs(listed) <= 100]
    assume(len(listed) > 0)
    return cfg, ham, listed[pick % len(listed)] * (1 + rel)


class TestLeanStep:
    # the residual's rounding grows with |E| ||D||
    @settings(max_examples=60, deadline=None)
    @given(**_DRAWS)
    def test_matches_the_dense_loop(self, l, n, scale, theta, z_target, pick, rel):
        cfg, ham, guess = _drawn_guess(l, n, scale, theta, z_target, pick, rel)
        dense = dense_refine_resonance(guess, z_target, cfg, R2_EXP_POTENTIAL, ham)
        lean = refine_resonance(guess, z_target, cfg, R2_EXP_POTENTIAL, ham)
        assert lean.energy == dense.energy
        assert lean.iterations == dense.iterations
        assert lean.converged == dense.converged
        assert lean.residual == pytest.approx(dense.residual, rel=0, abs=1e-12)

    # Both loops start from one pole, polished by refinement: from the
    # perturbed guess itself each loop stops at its own iterate, anywhere
    # within RESIDUAL_TOL of backward error, and at an ill-conditioned pole
    # two such iterates lay up to 2.9e-12 of max(1, |E|) apart over 5,000
    # draws of these ranges. From the polished pole the gap was at most
    # 6.5e-13 over 4,999 draws (two above 5e-13, all others within 4.8e-13).
    @settings(max_examples=60, deadline=None)
    @given(**_DRAWS)
    def test_agrees_with_the_lu_loop(self, l, n, scale, theta, z_target, pick, rel):
        cfg, ham, guess = _drawn_guess(l, n, scale, theta, z_target, pick, rel)
        try:
            pole = refine_resonance(guess, z_target, cfg, R2_EXP_POTENTIAL, ham)
            assume(pole.converged)
            lu = lu_refine_resonance(pole.energy, z_target, cfg, R2_EXP_POTENTIAL, ham)
            ldlt = refine_resonance(pole.energy, z_target, cfg, R2_EXP_POTENTIAL, ham)
        except EigensolverError:
            assume(False)
        assume(lu.converged and ldlt.converged)
        assert abs(ldlt.energy - lu.energy) <= 1e-12 * max(1.0, abs(lu.energy))

    # Over 2,500 draws of these ranges with |rel| <= 1e-3, both loops
    # converged, with energies at most 7.2e-13 of max(1, |E|) apart (one
    # draw; all others within 3.9e-13).
    @settings(max_examples=60, deadline=None)
    @given(**{**_DRAWS, "rel": st.complex_numbers(max_magnitude=1e-3)})
    def test_finds_the_pole_of_the_rqi_loop(self, l, n, scale, theta, z_target, pick, rel):
        cfg, ham, guess = _drawn_guess(l, n, scale, theta, z_target, pick, rel)
        kept = refine_resonance(guess, z_target, cfg, R2_EXP_POTENTIAL, ham)
        rqi = rqi_refine_resonance(guess, z_target, cfg, R2_EXP_POTENTIAL, ham)
        assert kept.converged and rqi.converged
        assert abs(kept.energy - rqi.energy) <= 1e-12 * max(1.0, abs(rqi.energy))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-100, 100))
    def test_norm_is_numpys_bit_for_bit(self, n, seed, exponent):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0**exponent
        assert resonance._norm(x) == np.linalg.norm(x)

    # A converged pole is a guess that is already a pole. Over 16,000
    # scratch draws of these ranges (numpy RNG), every re-refinement
    # converged, all but 15 at the first solve; the shift reached 3.1e-12 of
    # max(1, |E|) once and exceeded 1e-12 twice. Each end stops anywhere
    # within RESIDUAL_TOL of backward error, so the shift follows the pole's
    # conditioning, and the bound keeps a margin over that tail.
    @settings(max_examples=60, deadline=None)
    @given(**_DRAWS)
    def test_converged_pole_converges_again(self, l, n, scale, theta, z_target, pick, rel):
        cfg, ham, guess = _drawn_guess(l, n, scale, theta, z_target, pick, rel)
        pole = refine_resonance(guess, z_target, cfg, R2_EXP_POTENTIAL, ham)
        assume(pole.converged)
        again = refine_resonance(pole.energy, z_target, cfg, R2_EXP_POTENTIAL, ham)
        assert again.converged
        assert abs(again.energy - pole.energy) <= 1e-11 * max(1.0, abs(pole.energy))

    # The zero pivot is replaced by eps times D's largest entry: the pivot 2
    # of diag(1, 0, 2), and the off-diagonal 1 of the 2 x 2 block.
    @pytest.mark.parametrize(
        "static, repaired",
        [(np.diag([1.0, 0.0, 2.0]), [1.0, 2 * EPS, 2.0]), (TWO_BY_TWO_SINGULAR, [EPS, 0.0, 0.0])],
        ids=["one-by-one", "two-by-two"],
    )
    def test_exact_pole_at_guess_converges_at_first_solve(self, monkeypatch, static, repaired):
        factored = _record_factorizations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = refine_resonance(0.0, 0.0, _cfg(n=3), EMPTY, ham=_PoleAtGuess(static))
        assert res.converged and res.iterations == 1
        assert abs(res.energy) <= 1e-15
        assert len(factored) == 1 and list(factored[0]) == repaired

    def test_exactly_singular_iterate_converges_without_warnings(self, monkeypatch):
        factored = _record_factorizations(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = refine_resonance(0.8, 0.0, _cfg(n=3), EMPTY, ham=_PoleAtIterate())
        assert res.converged
        assert abs(res.energy) <= 1e-15
        # the refactor at the iterate met the exact zero pivot of diag(0, 1, 2)
        # and replaced it by eps times the largest pivot, 2
        assert len(factored) == 2 and factored[1][0] == 2 * EPS


def _table1_poles():
    return [(r.z, r.l, complex(r.computed_e_r, -r.computed_gamma / 2)) for r in run_table("table1")]


class TestRunTable:
    @pytest.mark.parametrize("table", ["table1", "table2_spot"])
    def test_one_assembly_per_channel(self, monkeypatch, table):
        built = []

        def counting(cfg, model):
            built.append(cfg.l)
            return RotatedHamiltonian(cfg, model)

        monkeypatch.setattr(resonance, "RotatedHamiltonian", counting)
        rows = run_table(table)
        assert all(r.ok for r in rows)
        assert sorted(built) == sorted({r.l for r in rows})


class TestFactorizationCount:
    """A refinement keeps its factors while inverse iteration converges
    fast, so a coarse table guess costs one factorization."""

    def test_one_factorization_per_table_row(self, monkeypatch):
        factored = _record_factorizations(monkeypatch)
        with lapack.one_thread():
            rows = run_table("table1") + run_table("table2_spot")
        assert len(rows) == 24 and all(r.ok for r in rows)
        assert len(factored) == 24  # each row factors at its guess at least

    def test_scan_pass_refactors_less_than_every_step(self, monkeypatch):
        # the benchmark's scan configuration; refactoring at every step, as
        # rqi_refine_resonance does, takes 158 factorizations here
        factored = _record_factorizations(monkeypatch)
        with lapack.one_thread():
            found = auto_search(_cfg(n=150), R2_EXP_POTENTIAL, [0.0])
        assert sum(r.stability.plateau for r in found) == 4
        assert len(factored) < 158


class TestSharedHamiltonian:
    # theta = -0.0 is an equal cache key to theta = 0.0 but a different
    # float, so the cache may hand out the twin's assembly
    @settings(max_examples=40, deadline=None)
    @given(
        l=st.integers(0, 3),
        n=st.integers(1, 40),
        scale=st.floats(0.5, 40.0),
        theta=st.sampled_from([-0.0, 0.0, 0.3, 0.7]),
        model=st.sampled_from([EMPTY, R2_EXP_POTENTIAL, GAUSSIAN_WELL_POTENTIAL]),
        energy=st.complex_numbers(max_magnitude=50.0),
        z=st.floats(-5.0, 5.0),
    )
    def test_cached_equals_fresh(self, l, n, scale, theta, model, energy, z):
        cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta)
        shared_hamiltonian(replace(cfg, theta=-theta) if theta == 0 else cfg, model)
        cached = shared_hamiltonian(cfg, model)
        fresh = RotatedHamiltonian(cfg, model)
        assert np.array_equal(cached.matrix(energy, z), fresh.matrix(energy, z))
        x = np.arange(1, n + 1) * (1 - 0.5j)
        assert np.array_equal(cached.apply_derivative(x), fresh.apply_derivative(x))

    def test_refinement_equals_explicit_fresh_assembly(self):
        cfg = _cfg(n=60)
        fresh = refine_resonance(3.43 - 0.01j, 0.0, cfg, R2_EXP_POTENTIAL,
                                 ham=RotatedHamiltonian(cfg, R2_EXP_POTENTIAL))
        cold = refine_resonance(3.43 - 0.01j, 0.0, cfg, R2_EXP_POTENTIAL)
        warm = refine_resonance(3.43 - 0.01j, 0.0, cfg, R2_EXP_POTENTIAL)
        assert fresh.converged
        assert cold == fresh
        assert warm == fresh
        assert shared_hamiltonian.cache_info().misses == 1

    def test_cached_arrays_read_only_and_matrix_fresh(self):
        ham = shared_hamiltonian(_cfg(n=10), R2_EXP_POTENTIAL)
        for arr in (ham._static, ham._d_diag, ham._d_off):
            assert not arr.flags.writeable
        first = ham.matrix(1.0 - 0.5j)
        assert first.flags.writeable
        first[:] = 0.0
        assert np.array_equal(ham.matrix(1.0 - 0.5j), RotatedHamiltonian(
            _cfg(n=10), R2_EXP_POTENTIAL).matrix(1.0 - 0.5j))

    def test_stability_grid_leaves_only_the_base_entry(self):
        cfg = _cfg(n=40)
        found = auto_search(cfg, R2_EXP_POTENTIAL, [0.0])
        assert found and all(r.stability is not None for r in found)
        assert shared_hamiltonian.cache_info().currsize == 1
        misses = shared_hamiltonian.cache_info().misses
        shared_hamiltonian(cfg, R2_EXP_POTENTIAL)
        assert shared_hamiltonian.cache_info().misses == misses


def _criterion_2_poles():
    cfg = ChannelConfig(l=0, **DEFAULT_CHANNEL)
    guesses = {-8.0: 1.287274955 - 2.971759279j, -4.0: 3.125581370 - 3.023378045j,
               9.0: 9.733679948 - 2.988524088j}
    return [(z, 0, refine_resonance(e, z, cfg, R2_EXP_POTENTIAL).energy)
            for z, e in guesses.items()]


class TestIndependentCrossCheck:
    """Every refined pole, checked by two dense solvers the refinement does
    not use: the charge spectrum at E, and the generalized eigenvalues of the
    pencil (S - Z_t) + E*D."""

    @pytest.mark.parametrize("poles", [_table1_poles, _criterion_2_poles])
    def test_refined_poles_match_dense_spectra(self, poles):
        for z, l, energy in poles():
            ham = RotatedHamiltonian(ChannelConfig(l=l, **DEFAULT_CHANNEL), R2_EXP_POTENTIAL)
            charges = np.linalg.eigvals(ham.matrix(energy))
            assert np.abs(charges - z).min() <= 1e-9
            shifted = ham.matrix(0.0) - z * np.eye(len(charges))
            energies = scipy.linalg.eigvals(shifted, -dense_derivative(ham))
            assert np.abs(energies - energy).min() <= 1e-9


# Minor page faults per converged refinement at order N = argv[1] and BLAS
# thread count argv[2], after three warm-up refinements.
_FAULTS_PER_REFINEMENT = """
import resource, sys
from chargeplane import R2_EXP_POTENTIAL, ChannelConfig, lapack, refine_resonance
n, threads = int(sys.argv[1]), int(sys.argv[2])
for _, set_ in lapack._thread_controls():
    set_(threads)
cfg = ChannelConfig(l=0, n_basis=n, scale=20.0, theta=0.7, quad_size=n)
for _ in range(3):
    refine_resonance(3.4264 - 0.0128j, 0.0, cfg, R2_EXP_POTENTIAL)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    assert refine_resonance(3.4264 - 0.0128j, 0.0, cfg, R2_EXP_POTENTIAL).converged
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
class TestMemoryReuse:
    # A refinement allocates one operator-sized array and reuses it for every
    # step. With more, glibc gave freed memory back to the system on return
    # or between steps and page-faulted it in again: 144 minor faults per
    # converged refinement at N = 150 and 437 at N = 200, against 0 for this
    # loop (an N x N array spans 88 and 157 pages). The sytrf workspace is
    # held per order too: allocated per factorization, it left 126 faults
    # per refinement at N = 200 and 2 BLAS threads. Each count is taken in a
    # fresh process, whose heap the test run has not grown: in this one,
    # those 126 faults did not show.
    @pytest.mark.parametrize(
        "n, threads", [(150, 1), (200, 1), (200, 2)], ids=["150", "200", "200-2threads"]
    )
    def test_converged_refinements_do_not_page_fault(self, fresh_python, n, threads):
        assert float(fresh_python(_FAULTS_PER_REFINEMENT, n, threads)) <= 10


@pytest.fixture(scope="module")
def sharp_pole():
    return refine_resonance(3.4264 - 0.0128j, 0.0, _cfg(n=150), R2_EXP_POTENTIAL).energy


class TestPoleInvariance:
    # The reference pole is refined at (lambda, theta) = (20, 0.7). The drawn
    # box lies well inside the exposure window theta > |arg E| / 2 ~ 0.002; at
    # N = 150 the basis resolves the pole to ~1e-12 over it, while smaller
    # theta under-resolves it at this N.
    @settings(max_examples=50, deadline=None)
    @given(
        scale=st.floats(10.0, 40.0),
        theta=st.floats(0.3, 1.0),
        d_re=st.floats(-0.01, 0.01),
        d_im=st.floats(-0.005, 0.005),
    )
    def test_pole_independent_of_scale_and_angle(self, sharp_pole, scale, theta, d_re, d_im):
        cfg = ChannelConfig(l=0, n_basis=150, scale=scale, theta=theta)
        res = refine_resonance(sharp_pole + complex(d_re, d_im), 0.0, cfg, R2_EXP_POTENTIAL)
        assert res.converged
        assert abs(res.energy - sharp_pole) <= 1e-8


def visiting_order(lambda_values, theta_values, n_values, cfg) -> list[tuple]:
    """The grid as a stability pass visits it: the channel's own point, then
    the other points at cfg.theta, then the rest, each in product order; a
    grid without the own point in plain product order. A repeated value
    gives one point."""
    points = list(dict.fromkeys(itertools.product(lambda_values, theta_values, n_values)))
    own = (cfg.scale, cfg.theta, cfg.n_basis)
    if own not in points:
        return points
    at_theta = [p for p in points if p != own and p[1] == cfg.theta]
    return [own] + at_theta + [p for p in points if p[1] != cfg.theta]


# The full-grid stability pass: every resonance is its own entry at the
# channel's own point and is re-refined at every other grid point. The
# oracle whose verdicts and plateau reports the early-settling pass must
# reproduce, listed in visiting order.
def full_grid_stability_reports(
    found, lambda_values, theta_values, n_values, cfg, model, tolerance
) -> list[StabilityReport]:
    """stability_scan of each resonance, with the grid loop outside."""
    entries = [[] for _ in found]
    oversample = cfg.quad_size - cfg.n_basis
    for lam, theta, n in visiting_order(lambda_values, theta_values, n_values, cfg):
        if (lam, theta, n) == (cfg.scale, cfg.theta, cfg.n_basis):
            outcomes = [(res.energy, True) for res in found]
        else:
            point_cfg = replace(cfg, scale=lam, theta=theta, n_basis=n, quad_size=n + oversample)
            outcomes = _refine_at_point(found, point_cfg, model)
        for rows, outcome in zip(entries, outcomes):
            rows.append((lam, theta, n, *outcome))
    reports = []
    for rows in entries:
        energies = [energy for *_, energy, converged in rows if converged]
        max_dev = None
        if len(energies) >= 2:
            arr = np.array(energies)
            max_dev = float(np.abs(arr[:, None] - arr[None, :]).max())
        all_converged = all(converged for *_, converged in rows)
        plateau = all_converged and len(rows) > 1 and max_dev <= tolerance
        reports.append(StabilityReport(tuple(rows), max_dev, plateau))
    return reports


def _nearest_converged_poles(cfg, model, z_target) -> list[Resonance]:
    """The converged refinements of the six pencil poles nearest E = 0."""
    ham = RotatedHamiltonian(cfg, model)
    found = []
    for guess in sorted(poles(ham, z_target), key=abs)[:6]:
        res = refine_resonance(guess, z_target, cfg, model, ham)
        if res.converged:
            found.append(res)
    return found


def _settled(rows, tolerance) -> bool:
    """True when grid entries already rule out a plateau: a point did not
    converge, or two converged energies differ by more than tolerance."""
    energies = np.array([energy for *_, energy, converged in rows if converged])
    spread = np.abs(energies[:, None] - energies[None, :])
    return not all(converged for *_, converged in rows) or bool(np.any(spread > tolerance))


class TestStabilityScan:
    def test_single_point_grid_is_not_a_plateau(self):
        # one point varies no parameter, so it cannot show a plateau
        cfg = _cfg(n=120)
        res = refine_resonance(-0.4 + 0.0j, -1.0, cfg, EMPTY)
        report = stability_scan(res, [20.0], [0.7], [120], cfg, EMPTY)
        assert not report.plateau
        assert report.entries == ((20.0, 0.7, 120, res.energy, True),)
        assert report.max_deviation is None  # nothing was compared

    def test_repeated_values_give_the_report_of_the_distinct_grid(self):
        # a grid is a set of points: [20, 20] varies nothing, like [20]
        cfg = _cfg(n=60)
        res = refine_resonance(3.4264 - 0.0128j, 0.0, cfg, R2_EXP_POTENTIAL)
        repeated = stability_scan(res, [20.0, 20.0], [0.7], [60], cfg, R2_EXP_POTENTIAL)
        assert repeated == stability_scan(res, [20.0], [0.7], [60], cfg, R2_EXP_POTENTIAL)
        assert not repeated.plateau
        repeated = stability_scan(
            res, [10.0, 20.0, 10.0], [0.7, 0.7], [60, 60], cfg, R2_EXP_POTENTIAL
        )
        distinct = stability_scan(res, [10.0, 20.0], [0.7], [60], cfg, R2_EXP_POTENTIAL)
        assert repeated == distinct
        assert distinct.plateau and len(distinct.entries) == 2

    def test_genuine_pole_survives_parameter_changes(self):
        cfg = _cfg(n=150)
        res = refine_resonance(3.43 - 0.01j, 0.0, cfg, R2_EXP_POTENTIAL)
        report = stability_scan(
            res, [15.0, 20.0, 25.0], [0.6, 0.7], [150], cfg, R2_EXP_POTENTIAL
        )
        assert report.plateau
        assert report.max_deviation < 1e-8

    def test_under_rotation_breaks_the_plateau(self):
        # theta = 0.05 cannot expose a pole with |arg E| ~ 0.5, so the
        # re-refined energies wander and the plateau flag must drop
        cfg = _cfg(n=120)
        res = refine_resonance(4.8345 - 1.117j, 0.0, cfg, R2_EXP_POTENTIAL)
        assert res.converged
        report = stability_scan(
            res, [20.0], [0.05, 0.7], [120], cfg, R2_EXP_POTENTIAL
        )
        assert not report.plateau


    def test_failed_point_settles_the_verdict(self, monkeypatch):
        cfg = _cfg(n=60)
        res = refine_resonance(3.4264 - 0.0128j, 0.0, cfg, R2_EXP_POTENTIAL)
        grid = ([20.0], [0.7, 0.6, 0.8], [60])
        assert stability_scan(res, *grid, cfg, R2_EXP_POTENTIAL).plateau
        original = resonance.refine_resonance

        def failing_at_0_6(guess, z_target, point_cfg, model, ham=None):
            if point_cfg.theta == 0.6:
                raise EigensolverError("injected failure")
            return original(guess, z_target, point_cfg, model, ham)

        monkeypatch.setattr(resonance, "refine_resonance", failing_at_0_6)
        report = stability_scan(res, *grid, cfg, R2_EXP_POTENTIAL)
        assert not report.plateau
        assert report.entries[1][1:] == (0.6, 60, None, False)
        assert len(report.entries) == 2
        assert report.max_deviation is None  # one converged entry

    def test_unconverged_pole_settles_at_its_own_point(self):
        cfg = _cfg(n=60)
        res = refine_resonance(3.4264 - 0.0128j, 0.0, cfg, R2_EXP_POTENTIAL)
        unconverged = replace(res, converged=False)
        report = stability_scan(unconverged, [20.0, 25.0], [0.7], [60], cfg, R2_EXP_POTENTIAL)
        assert not report.plateau
        assert report.entries == ((20.0, 0.7, 60, res.energy, False),)

    def test_empty_list_takes_its_default(self):
        cfg = _cfg(n=60)
        res = refine_resonance(3.4264 - 0.0128j, 0.0, cfg, R2_EXP_POTENTIAL)
        written = stability_scan(res, [10.0, 20.0, 40.0], [0.7], [60], cfg, R2_EXP_POTENTIAL)
        assert written.plateau
        assert stability_scan(res, [], [0.7], (), cfg, R2_EXP_POTENTIAL) == written

    # Any subset of the lists left empty: each empty list is the default
    # grid's, written out here. theta = 0.03 loses theta - 0.05 and
    # theta = 1.54 loses theta + 0.05, both outside [0, pi/2).
    @settings(max_examples=20, deadline=None)
    @given(
        l=st.integers(0, 2),
        n=st.integers(20, 40),
        scale=st.sampled_from([15.0, 20.0]),
        theta=st.sampled_from([0.0, 0.03, 0.7, 1.54]),
        z_target=st.sampled_from([-1.0, 0.0]),
        model=st.sampled_from([R2_EXP_POTENTIAL, EMPTY]),
        empty=st.tuples(st.booleans(), st.booleans(), st.booleans()),
        lams=st.lists(st.sampled_from([10.0, 15.0, 30.0]), min_size=1, max_size=2, unique=True),
        thetas=st.lists(st.sampled_from([0.0, 0.4, 0.7]), min_size=1, max_size=2, unique=True),
        n_offsets=st.lists(st.sampled_from([0, -5, 5]), min_size=1, max_size=2, unique=True),
    )
    def test_empty_lists_are_their_defaults_written_out(
        self, l, n, scale, theta, z_target, model, empty, lams, thetas, n_offsets
    ):
        cfg = ChannelConfig(l=l, n_basis=n, scale=scale, theta=theta, quad_size=n)
        found = _nearest_converged_poles(cfg, model, z_target)
        defaults = (
            [scale / 2, scale, 2 * scale],
            [t for t in (theta - 0.05, theta, theta + 0.05) if 0 <= t < np.pi / 2],
            [n],
        )
        drawn = (lams, thetas, [n + k for k in n_offsets])
        left_empty = [[] if e else v for e, v in zip(empty, drawn)]
        written = [d if e else v for e, d, v in zip(empty, defaults, drawn)]
        reports = stability_reports(found, cfg, model, *left_empty)
        assert reports == stability_reports(found, cfg, model, *written, 1e-8)

    # Small grids over both potentials; theta = 0.05 under-rotates most
    # poles, so draws mix plateau poles with ones that settle early. The
    # lists may repeat a value, which the oracle's grid visits once.
    @settings(max_examples=25, deadline=None)
    @given(
        l=st.integers(0, 2),
        n=st.integers(20, 60),
        z_target=st.sampled_from([-1.0, 0.0, 1.0]),
        model=st.sampled_from([R2_EXP_POTENTIAL, EMPTY]),
        lams=st.lists(st.sampled_from([15.0, 20.0, 30.0]), min_size=1, max_size=2),
        thetas=st.lists(st.sampled_from([0.05, 0.4, 0.7]), min_size=1, max_size=3),
        n_offsets=st.lists(st.sampled_from([0, -5, 5]), min_size=1, max_size=2),
    )
    def test_verdicts_match_the_full_grid(self, l, n, z_target, model, lams, thetas, n_offsets):
        cfg = _cfg(l=l, n=n)
        found = _nearest_converged_poles(cfg, model, z_target)
        grid = (lams, thetas, [n + k for k in n_offsets])
        reports = stability_reports(found, cfg, model, *grid, 1e-8)
        oracle = full_grid_stability_reports(found, *grid, cfg, model, 1e-8)
        for report, full in zip(reports, oracle, strict=True):
            assert report.plateau == full.plateau
            if full.plateau:
                assert report == full
            else:
                assert report.entries == full.entries[: len(report.entries)]

    # Every refinement starts from the pole's own energy, and a plateau needs
    # every point, so the order in which the grid lists its values can move
    # only the listed prefix of a non-plateau report.
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        l=st.integers(0, 2),
        n=st.integers(20, 60),
        z_target=st.sampled_from([-1.0, 0.0, 1.0]),
        model=st.sampled_from([R2_EXP_POTENTIAL, EMPTY]),
        lams=st.lists(st.sampled_from([15.0, 20.0, 30.0]), min_size=1, max_size=3, unique=True),
        thetas=st.lists(st.sampled_from([0.05, 0.4, 0.7]), min_size=1, max_size=3, unique=True),
        n_offsets=st.lists(st.sampled_from([0, -5, 5]), min_size=1, max_size=2, unique=True),
    )
    def test_verdicts_independent_of_grid_order(
        self, data, l, n, z_target, model, lams, thetas, n_offsets
    ):
        cfg = _cfg(l=l, n=n)
        found = _nearest_converged_poles(cfg, model, z_target)
        grid = (lams, thetas, [n + k for k in n_offsets])
        permuted = [data.draw(st.permutations(values)) for values in grid]
        reports = stability_reports(found, cfg, model, *grid, 1e-8)
        again = stability_reports(found, cfg, model, *permuted, 1e-8)
        for report, other in zip(reports, again, strict=True):
            assert report.plateau == other.plateau
            if report.plateau:
                assert set(report.entries) == set(other.entries)
                assert len(report.entries) == len(other.entries)


class TestAutoSearch:
    def test_empty_targets(self):
        assert auto_search(_cfg(n=40), R2_EXP_POTENTIAL, []) == []

    def test_empty_schedule_is_an_empty_region(self):
        assert auto_search(_cfg(n=40), R2_EXP_POTENTIAL, [0.0], im_schedule=()) == []

    def test_array_inputs_match_lists(self):
        cfg = _cfg(n=20)
        as_lists = auto_search(cfg, R2_EXP_POTENTIAL, [0.0, 1.0], im_schedule=[-0.1, -10.0])
        as_arrays = auto_search(
            cfg,
            R2_EXP_POTENTIAL,
            np.array([0.0, 1.0]),
            im_schedule=np.array([-0.1, -10.0]),
        )
        assert as_lists
        assert as_arrays == as_lists

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"re_range": (np.nan, 10.0)},
            {"re_range": (0.0, np.inf)},
            {"im_schedule": (-0.1, np.nan)},
            {"re_range": (5.0, 5.0)},
        ],
    )
    def test_rejects_bad_region(self, kwargs):
        with pytest.raises(ChargePlaneError):
            auto_search(_cfg(n=20), R2_EXP_POTENTIAL, [0.0], **kwargs)

    def test_refines_exactly_the_exposed_poles_in_the_region(self, monkeypatch):
        cfg = _cfg(n=60)
        guesses = []
        original = resonance.refine_resonance

        def recording(guess, *args):
            guesses.append(guess)
            return original(guess, *args)

        monkeypatch.setattr(resonance, "refine_resonance", recording)
        # grid points re-refine the poles; only the candidates are recorded
        monkeypatch.setattr(resonance, "stability_reports", lambda found, *_: [None] * len(found))
        auto_search(cfg, R2_EXP_POTENTIAL, [0.0], im_schedule=(-0.4, -10.0), re_range=(0.0, 8.0))
        in_box = [
            e for e in poles(RotatedHamiltonian(cfg, R2_EXP_POTENTIAL), 0.0)
            if 0.0 <= e.real <= 8.0 and -10.0 <= e.imag < 0
        ]
        expected = [e for e in in_box if not outside_exposure_window(e, cfg.theta)]
        assert 0 < len(expected) < len(in_box)
        assert guesses == expected

    def test_shared_assemblies_give_stability_scan_reports(self):
        # the first entry is the pole itself at the channel's own point, and
        # every other grid entry equals a refinement that assembles its own
        # operator; a plateau pole lists the whole grid, any other pole the
        # visiting-order prefix whose last point settles its verdict
        cfg = _cfg(n=60)
        found = auto_search(cfg, R2_EXP_POTENTIAL, [0.0, 1.0])
        assert len(found) >= 2
        grid = ((10.0, 20.0, 40.0), (0.7 - 0.05, 0.7, 0.7 + 0.05), (60,))  # the default
        points = visiting_order(*grid, cfg)
        assert sorted(points) == sorted(itertools.product(*grid))
        assert len(points) == 9
        assert points[:3] == [(20.0, 0.7, 60), (10.0, 0.7, 60), (40.0, 0.7, 60)]
        assert {r.stability.plateau for r in found} == {True, False}
        for r in found:
            entries = r.stability.entries
            assert [entry[:3] for entry in entries] == points[: len(entries)]
            if r.stability.plateau:
                assert len(entries) == 9
            else:
                assert _settled(entries, 1e-8)
                assert not _settled(entries[:-1], 1e-8)
            assert entries[0] == (*points[0], r.energy, True)
            for lam, theta, n, energy, converged in entries[1:]:
                point_cfg = replace(cfg, scale=lam, theta=theta, n_basis=n, quad_size=n)
                alone = refine_resonance(r.energy, r.z_target, point_cfg, R2_EXP_POTENTIAL)
                assert (alone.energy, alone.converged) == (energy, converged)
            alone_report = stability_scan(replace(r, stability=None), *grid, cfg, R2_EXP_POTENTIAL)
            assert r.stability == alone_report

    def test_own_point_costs_no_assembly_and_no_refinement(self, monkeypatch):
        # each pole is its own first entry, the channel's operator is
        # assembled once (the shared base assembly), and every later entry
        # costs one refinement
        cfg = _cfg(n=60)
        own = (cfg.scale, cfg.theta, cfg.n_basis)
        built, refined, phase = [], [], []
        original_refine = resonance.refine_resonance
        original_reports = resonance.stability_reports

        def counting_assembly(point_cfg, model):
            built.append(((point_cfg.scale, point_cfg.theta, point_cfg.n_basis), list(phase)))
            return RotatedHamiltonian(point_cfg, model)

        def counting_refine(*args, **kwargs):
            refined.append(list(phase))
            return original_refine(*args, **kwargs)

        def stability_phase(*args, **kwargs):
            phase.append("stability")
            return original_reports(*args, **kwargs)

        monkeypatch.setattr(resonance, "RotatedHamiltonian", counting_assembly)
        monkeypatch.setattr(resonance, "refine_resonance", counting_refine)
        monkeypatch.setattr(resonance, "stability_reports", stability_phase)
        found = auto_search(cfg, R2_EXP_POTENTIAL, [0.0, 1.0])
        assert len(found) >= 2 and phase == ["stability"]
        for r in found:
            assert r.stability.entries[0] == (*own, r.energy, True)
        assert built[0] == (own, [])
        assert own not in [point for point, _ in built[1:]]
        assert all(when == ["stability"] for _, when in built[1:])
        in_stability = sum(when == ["stability"] for when in refined)
        assert in_stability == sum(len(r.stability.entries) - 1 for r in found)

    def test_free_operator_artifacts_fail_stability(self):
        # V = 0 has no genuine poles at Z = 0; any search hits are
        # finite-basis artifacts and the stability scan must reject them
        cfg = _cfg(n=60)
        found = auto_search(cfg, EMPTY, [0.0], im_schedule=(-0.1, -1.0))
        for r in found:
            assert not r.stability.plateau
            report = stability_scan(r, [10.0, 20.0], [0.6, 0.7], [60], cfg, EMPTY)
            assert not report.plateau

    def test_finds_all_neutral_channel_resonances(self):
        # three poles below Re E = 10 in the s-wave neutral channel
        found = auto_search(_cfg(n=150), R2_EXP_POTENTIAL, [0.0])
        expected = [
            3.426390331 - 0.012774481j,
            4.834806841 - 1.117876669j,
            5.277279624 - 3.389053295j,
        ]
        energies = [r.energy for r in found]
        for e in expected:
            assert min(abs(v - e) for v in energies) < 1e-5
        for r in found:
            assert r.converged
            assert r.z_target == 0.0

    def test_results_sorted_and_deduplicated(self):
        found = auto_search(_cfg(n=150), R2_EXP_POTENTIAL, [0.0])
        reals = [r.e_r for r in found]
        assert reals == sorted(reals)
        arr = np.array([r.energy for r in found])
        gaps = np.abs(arr[:, None] - arr[None, :])
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-6


class TestCrossingCandidate:
    def test_e_guess_interpolates(self):
        c = CrossingCandidate(
            branch_id=0,
            e_lo=1.0 - 1j,
            e_hi=3.0 - 1j,
            z_at_crossing=0.0,
            z_target=0.0,
            fraction=0.25,
        )
        assert c.e_guess == pytest.approx(1.5 - 1j)
