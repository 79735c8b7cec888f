"""Tests for branch matching and energy sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplane import trajectory
from chargeplane.basis import ChannelConfig
from chargeplane.eigensolver import eigen_decompose, eigenvalues
from chargeplane.errors import ChargePlaneError
from chargeplane.potential import GAUSSIAN_WELL_POTENTIAL, PotentialModel
from chargeplane.resonance import shared_hamiltonian
from chargeplane.trajectory import EnergyGrid, match_step, sweep

EMPTY = PotentialModel(terms=())


def greedy_reference(prev, nxt):
    """Greedy matching as a loop over all pairs in stable-argsort order."""
    prev = np.asarray(prev, dtype=complex)
    nxt = np.asarray(nxt, dtype=complex)
    n = len(prev)
    dist = np.abs(prev[:, None] - nxt[None, :])
    perm = np.full(n, -1, dtype=int)
    used = np.zeros(n, dtype=bool)
    pair_dist = np.empty(n)
    for flat in np.argsort(dist, axis=None, kind="stable"):
        i, j = divmod(int(flat), n)
        if perm[i] >= 0 or used[j]:
            continue
        perm[i] = j
        used[j] = True
        pair_dist[i] = dist[i, j]
    med = float(np.median(pair_dist))
    threshold = 5 * med if med > 0 else np.inf
    return perm, tuple(int(i) for i in np.nonzero(pair_dist > threshold)[0])


def two_pass_paths(samples) -> np.ndarray:
    """Branch paths, one row per branch, from every sample stored first and
    the match_step permutations composed over them afterwards."""
    current = np.arange(len(samples[0]))
    paths = [samples[0]]
    for prev, nxt in zip(samples, samples[1:]):
        current = match_step(prev, nxt)[0][current]
        paths.append(nxt[current])
    return np.array(paths).T


# Small-integer grids make many pair distances equal, so tie-breaking decides.
grid_points = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
equal_length_sets = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.lists(grid_points, min_size=n, max_size=n),
        st.lists(grid_points, min_size=n, max_size=n),
    )
)


class TestEnergyGrid:
    def test_energies_values(self):
        grid = EnergyGrid(re_start=0.0, re_end=1.0, steps=3, im_part=-0.5)
        assert grid.energies() == pytest.approx(
            np.array([0.0 - 0.5j, 0.5 - 0.5j, 1.0 - 0.5j])
        )

    @pytest.mark.parametrize("field", ["re_start", "re_end", "im_part"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_bounds(self, field, bad):
        bounds = dict(re_start=0.0, re_end=1.0, im_part=-0.5)
        bounds[field] = bad
        with pytest.raises(ChargePlaneError, match="finite"):
            EnergyGrid(steps=3, **bounds)

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ChargePlaneError):
            EnergyGrid(re_start=1.0, re_end=0.0, steps=5)
        with pytest.raises(ChargePlaneError):
            EnergyGrid(re_start=0.0, re_end=1.0, steps=1)


class TestMatchStep:
    def test_identity(self):
        vals = np.array([1.0, 2.0 + 1j, -3.0])
        perm, flagged = match_step(vals, vals)
        assert list(perm) == [0, 1, 2]
        assert flagged == ()

    def test_reversed(self):
        vals = np.array([1.0, 2.0 + 1j, -3.0])
        perm, _ = match_step(vals, vals[::-1])
        assert list(perm) == [2, 1, 0]

    def test_closest_pair_wins(self):
        # 1+i should track to 1+0.9i, not jump to 5.1
        perm, _ = match_step([1.0 + 1j, 5.0], [5.1, 1.0 + 0.9j])
        assert list(perm) == [1, 0]

    def test_is_a_bijection(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=40) + 1j * rng.normal(size=40)
        b = a + 0.01 * (rng.normal(size=40) + 1j * rng.normal(size=40))
        perm, _ = match_step(a, rng.permutation(b))
        assert sorted(perm) == list(range(40))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ChargePlaneError):
            match_step([1.0, 2.0], [1.0])

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ChargePlaneError):
            match_step([1.0, np.nan], [1.0, 2.0])

    @settings(max_examples=300, deadline=None)
    @given(equal_length_sets)
    def test_equals_greedy_reference_on_tie_heavy_sets(self, sets):
        prev, nxt = sets
        perm, flagged = match_step(prev, nxt)
        ref_perm, ref_flagged = greedy_reference(prev, nxt)
        assert np.array_equal(perm, ref_perm)
        assert flagged == ref_flagged

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
    def test_equals_greedy_reference_on_drifting_sets(self, n, seed, step):
        rng = np.random.default_rng(seed)
        prev = rng.normal(size=n) + 1j * rng.normal(size=n)
        nxt = rng.permutation(prev + step * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        perm, flagged = match_step(prev, nxt)
        ref_perm, ref_flagged = greedy_reference(prev, nxt)
        assert np.array_equal(perm, ref_perm)
        assert flagged == ref_flagged

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_equivariant_under_permuting_next(self, n, seed):
        # generic values, so no two pair distances tie and the matching is unique
        rng = np.random.default_rng(seed)
        prev = rng.normal(size=n) + 1j * rng.normal(size=n)
        nxt = prev + 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        shuffle = rng.permutation(n)
        perm, flagged = match_step(prev, nxt)
        perm_shuffled, flagged_shuffled = match_step(prev, nxt[shuffle])
        assert np.array_equal(shuffle[perm_shuffled], perm)
        assert flagged_shuffled == flagged


class TestSweep:
    def test_pure_coulomb_branches_follow_exact_formula(self):
        # with no potential the eigenvalues are exactly Z_n = -sqrt(-2E)(n+l+1)
        # at lambda = 2 sqrt(-2E); for general scale the low-lying branches
        # stay within discretization error of that formula
        n = 100
        cfg = ChannelConfig(l=0, n_basis=n, scale=20.0, theta=0.7, quad_size=n)
        grid = EnergyGrid(re_start=-0.6, re_end=-0.4, steps=5)
        trajs = sweep(cfg, EMPTY, grid)
        assert len(trajs) == n
        energies = grid.energies()
        # ground branch, n = 0
        exact = -np.sqrt(-2 * energies)
        best = min(
            trajs, key=lambda t: np.abs(t.z_values - exact).max()
        )
        assert np.abs(best.z_values - exact).max() < 1e-6

    def test_no_real_axis_crossings_without_exposed_poles(self):
        # sweeping above all string eigenvalues: on the real energy axis at
        # small theta every branch keeps a definite Im-Z sign
        cfg = ChannelConfig(l=3, n_basis=60, scale=20.0, theta=0.7, quad_size=60)
        grid = EnergyGrid(re_start=0.5, re_end=10.0, steps=20, im_part=0.0)
        trajs = sweep(cfg, GAUSSIAN_WELL_POTENTIAL, grid)
        crossings = 0
        for t in trajs:
            im = t.z_values.imag
            crossings += int(np.count_nonzero(im[:-1] * im[1:] < 0))
        assert crossings == 0

    def test_values_match_eigen_decompose(self):
        cfg = ChannelConfig(l=0, n_basis=40, scale=20.0, theta=0.7, quad_size=40)
        grid = EnergyGrid(re_start=1.0, re_end=5.0, steps=6, im_part=-0.5)
        trajs = sweep(cfg, GAUSSIAN_WELL_POTENTIAL, grid)
        ham = shared_hamiltonian(cfg, GAUSSIAN_WELL_POTENTIAL)
        assert shared_hamiltonian.cache_info().misses == 1  # the sweep's assembly
        for k, e in enumerate(grid.energies()):
            mat = ham.matrix(e)
            swept = np.sort_complex(np.array([t.z_values[k] for t in trajs]))
            full = np.sort_complex(eigen_decompose(mat).values)
            assert np.abs(swept - full).max() <= 1e-10 * np.linalg.norm(mat, "fro")

    def test_parallel_matches_serial_exactly(self):
        # BLAS is a sweep's only parallelism: two sweeps of one grid agree
        # bit for bit
        cfg = ChannelConfig(l=0, n_basis=40, scale=20.0, theta=0.7, quad_size=40)
        grid = EnergyGrid(re_start=1.0, re_end=5.0, steps=6, im_part=-0.5)
        first = sweep(cfg, GAUSSIAN_WELL_POTENTIAL, grid)
        second = sweep(cfg, GAUSSIAN_WELL_POTENTIAL, grid)
        for a, b in zip(first, second, strict=True):
            assert a.branch_id == b.branch_id
            assert np.array_equal(a.z_values, b.z_values)

    def test_stitching_stable_under_grid_refinement(self):
        # halving the step size must not reroute a branch: values at shared
        # grid points agree between the coarse and fine sweeps
        cfg = ChannelConfig(l=0, n_basis=40, scale=20.0, theta=0.7, quad_size=40)
        coarse = EnergyGrid(re_start=2.0, re_end=4.0, steps=5, im_part=-1.0)
        fine = EnergyGrid(re_start=2.0, re_end=4.0, steps=9, im_part=-1.0)
        tc = sweep(cfg, GAUSSIAN_WELL_POTENTIAL, coarse)
        tf = sweep(cfg, GAUSSIAN_WELL_POTENTIAL, fine)
        for a, b in zip(tc, tf):
            assert a.z_values == pytest.approx(b.z_values[::2], abs=1e-10)

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    @pytest.mark.parametrize("model", [EMPTY, GAUSSIAN_WELL_POTENTIAL], ids=["free", "well"])
    @pytest.mark.parametrize("im_part", [0.0, -0.8])
    def test_stitching_equals_the_two_pass_rule(self, theta, model, im_part):
        # stitching each sample as it is solved composes the same match_step
        # permutations, on the same sorted samples, as storing them all first
        cfg = ChannelConfig(l=1, n_basis=24, scale=20.0, theta=theta, quad_size=24)
        grid = EnergyGrid(re_start=0.5, re_end=6.0, steps=12, im_part=im_part)
        swept = np.array([t.z_values for t in sweep(cfg, model, grid)])
        ham = shared_hamiltonian(cfg, model)
        samples = [eigenvalues(ham.matrix(e)) for e in grid.energies()]
        assert np.array_equal(swept, two_pass_paths(samples))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(grid_points, min_size=n, max_size=n), min_size=2, max_size=6
            )
        )
    )
    def test_stitching_equals_the_two_pass_rule_on_tie_heavy_samples(self, samples):
        # ties go to the lower index in the previous sample's own order, not
        # in branch order, so samples with many equal distances tell the two
        # apart; the eigensolve is replaced by the drawn samples
        samples = [np.array(sample, dtype=complex) for sample in samples]
        n = len(samples[0])
        cfg = ChannelConfig(l=0, n_basis=n, scale=20.0, theta=0.7, quad_size=n)
        grid = EnergyGrid(re_start=0.5, re_end=6.0, steps=len(samples))
        drawn = iter(samples)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trajectory, "eigenvalues", lambda mat: next(drawn))
            swept = np.array([t.z_values for t in sweep(cfg, EMPTY, grid)])
        assert np.array_equal(swept, two_pass_paths(samples))
