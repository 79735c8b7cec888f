"""A closed-form oracle: with V = 0 and a charge Z < 0, the poles on the
real line are the hydrogenic bound states E_n = -Z^2 / (2 n^2), n >= l + 1.

It checks the band writes of the assembly (the three bands of
-(lambda'/8)|J| in S and of D = J / lambda'), the Cholesky reduction of
the pencil (`RotatedHamiltonian.reduced`, through `poles`) and
refinement, at general (lambda, theta), against exact numbers rather than
stored references. lambda is drawn around 2 kappa, with
kappa = |Z| / (l + 1) the ground state's decay rate. The same exact numbers
test the plateau verdict of `scan`'s default stability grid: a state the
basis resolves is a plateau, and one it does not resolve is not, although
its refinement converges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplane import (
    ChannelConfig,
    PotentialModel,
    RotatedHamiltonian,
    poles,
    refine_resonance,
    stability_reports,
)

FREE = PotentialModel()

channels = st.fixed_dictionaries(
    {
        "l": st.integers(0, 3),
        "charge": st.sampled_from([-1.0, -2.0, -3.0]),
        "ratio": st.floats(1.0, 2.5),
        "theta": st.floats(0.0, 0.7, exclude_max=True),
    }
)


def _setup(l, charge, ratio, theta):
    """The channel at N = 60, and the exact energies of n = l+1 ... l+3."""
    kappa = abs(charge) / (l + 1)
    cfg = ChannelConfig(l=l, n_basis=60, scale=ratio * kappa, theta=theta)
    exact = [-(charge**2) / (2 * n**2) for n in range(l + 1, l + 4)]
    return cfg, exact


@settings(max_examples=100, deadline=None)
@given(channel=channels)
def test_poles_hold_the_bound_states(channel):
    cfg, exact = _setup(**channel)
    found = poles(RotatedHamiltonian(cfg, FREE), channel["charge"])
    for energy in exact:
        assert np.abs(found - energy).min() <= 1e-10 * abs(energy)


@settings(max_examples=100, deadline=None)
@given(channel=channels)
def test_refinement_lands_on_the_bound_states(channel):
    cfg, exact = _setup(**channel)
    ham = RotatedHamiltonian(cfg, FREE)
    for energy in exact:
        res = refine_resonance(energy * (1 + 1e-3), channel["charge"], cfg, FREE, ham)
        assert res.converged
        assert abs(res.energy - energy) <= 1e-12 * abs(energy)


# A converged pole is a guess that is already a pole: refinement from it
# converges again, also where M(E) - Z_t is exactly singular there. Over
# 18,000 scratch poles of these channels (numpy RNG), every re-refinement
# converged at its first solve, at most 1.4e-14 of max(1, |E|) away.
@settings(max_examples=100, deadline=None)
@given(channel=channels)
def test_converged_pole_converges_again(channel):
    cfg, exact = _setup(**channel)
    ham = RotatedHamiltonian(cfg, FREE)
    for energy in exact:
        pole = refine_resonance(energy * (1 + 1e-3), channel["charge"], cfg, FREE, ham)
        again = refine_resonance(pole.energy, channel["charge"], cfg, FREE, ham)
        assert pole.converged and again.converged
        assert abs(again.energy - pole.energy) <= 1e-12 * max(1.0, abs(pole.energy))


# With V = 0, M(E) is tridiagonal. For 6 of these 24 states, M(E) - Z_t at
# the converged ground state is exactly singular at one point of the grid
# (lambda / 2 = kappa for the theta = 0 cases of l = 1 and 3, and
# lambda = 4 kappa for l = 0, Z = -3, theta = 0.3): re-refinement there
# starts at a pole exact to working precision, and converges at once.
@pytest.mark.parametrize(
    "l, charge, theta",
    [(l, z, theta) for l in range(4) for z in (-1.0, -2.0, -3.0) for theta in (0.0, 0.3)],
)
def test_ground_state_is_a_plateau_at_two_kappa(l, charge, theta):
    cfg, (exact, *_) = _setup(l, charge, 2.0, theta)
    res = refine_resonance(exact * (1 + 1e-3), charge, cfg, FREE)
    assert res.converged
    report = stability_reports([res], cfg, FREE)[0]  # the default grid
    assert report.plateau
    assert report.entries[0][:3] == (cfg.scale, theta, cfg.n_basis)  # theta = 0 keeps it
    assert len(report.entries) == (6 if theta == 0.0 else 9)


def test_unresolved_state_converges_off_it_and_is_no_plateau():
    # lambda = 20 is 60 kappa for n = 3 of l = 1 at Z = -1 (kappa = 1/3), so
    # the basis barely reaches the state: refinement converges, but about
    # 1e-2 away, and only the stability verdict says so
    cfg = ChannelConfig(l=1, n_basis=120, scale=20.0, theta=0.7)
    exact = -1.0 / 18
    res = refine_resonance(exact * (1 + 1e-3), -1.0, cfg, FREE)
    assert res.converged
    assert abs(res.energy - exact) > 1e-3
    assert not stability_reports([res], cfg, FREE)[0].plateau
