"""A closed-form oracle: with V = 0 and a charge Z < 0, the poles on the
real line are the hydrogenic bound states E_n = -Z^2 / (2 n^2), n >= l + 1.

It checks the band writes of the assembly (the three bands of
-(lambda'/8)|J| in S and of D = J / lambda'), the Cholesky reduction in
`poles` and refinement, at general (lambda, theta), against exact numbers
rather than stored references. lambda is drawn around 2 kappa, with
kappa = |Z| / (l + 1) the ground state's decay rate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplane import ChannelConfig, PotentialModel, RotatedHamiltonian, poles, refine_resonance

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
