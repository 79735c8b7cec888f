"""Tests for crossing detection, Newton refinement, and stability scans."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplane.basis import ChannelConfig
from chargeplane.errors import EigensolverError
from chargeplane.hamiltonian import RotatedHamiltonian
from chargeplane.potential import R2_EXP_POTENTIAL, PotentialModel
from chargeplane.reference import DEFAULT_CHANNEL, run_table
from chargeplane.resonance import (
    CrossingCandidate,
    auto_search,
    detect_crossings,
    refine_resonance,
    stability_scan,
)
from chargeplane.trajectory import Trajectory

EMPTY = PotentialModel(terms=())


def _cfg(l=0, n=100):
    return ChannelConfig(l=l, n_basis=n, scale=20.0, theta=0.7, quad_size=n)


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


def _table1_poles():
    return [(r.z, r.l, complex(r.computed_e_r, -r.computed_gamma / 2)) for r in run_table("table1")]


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
            energies = scipy.linalg.eigvals(shifted, -ham.derivative)
            assert np.abs(energies - energy).min() <= 1e-9


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


class TestStabilityScan:
    def test_single_point_grid_is_a_plateau(self):
        cfg = _cfg(n=120)
        res = refine_resonance(-0.4 + 0.0j, -1.0, cfg, EMPTY)
        report = stability_scan(res, [20.0], [0.7], [120], cfg, EMPTY)
        assert report.plateau
        assert report.max_deviation == 0.0
        assert len(report.entries) == 1

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


class TestAutoSearch:
    def test_empty_targets(self):
        assert auto_search(_cfg(n=40), R2_EXP_POTENTIAL, []) == []

    def test_free_operator_artifacts_fail_stability(self):
        # V = 0 has no genuine poles at Z = 0; any search hits are
        # finite-basis artifacts and the stability scan must reject them
        cfg = _cfg(n=60)
        found = auto_search(
            cfg,
            EMPTY,
            [0.0],
            im_schedule=(-0.1, -1.0),
            steps=21,
            run_stability=False,
        )
        for r in found:
            report = stability_scan(r, [10.0, 20.0], [0.6, 0.7], [60], cfg, EMPTY)
            assert not report.plateau

    def test_finds_all_neutral_channel_resonances(self):
        # three poles below Re E = 10 in the s-wave neutral channel
        found = auto_search(
            _cfg(n=150),
            R2_EXP_POTENTIAL,
            [0.0],
            steps=51,
            run_stability=False,
        )
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
        found = auto_search(
            _cfg(n=150),
            R2_EXP_POTENTIAL,
            [0.0],
            steps=51,
            run_stability=False,
        )
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
