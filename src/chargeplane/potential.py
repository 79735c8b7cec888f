"""Analytic radial potentials evaluable at complex radius.

A potential is a sum of terms c * r**p * exp(-b*(r-s)**q) with q in {1, 2},
which keeps every term an entire function of r so it can be evaluated on the
rotated ray r * exp(i*theta). All quantities are in atomic units
(hbar = m = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


def _ipow(r, p: int):
    """Integer power by repeated multiplication (no complex branch cuts)."""
    out = np.ones_like(np.asarray(r, dtype=complex)) if np.ndim(r) else 1.0 + 0j
    base = r
    n = p
    while n > 0:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


@dataclass(frozen=True)
class PotentialTerm:
    """One analytic term c * r**p * exp(-b*(r-s)**q)."""

    c: float
    p: int = 0
    b: float = 0.0
    s: float = 0.0
    q: int = 1

    def __post_init__(self):
        if self.q not in (1, 2):
            raise ConfigError(f"term exponent q must be 1 or 2, got {self.q}")
        if self.b < 0:
            raise ConfigError(f"term decay rate b must be >= 0, got {self.b}")
        if self.p < 0 or int(self.p) != self.p:
            raise ConfigError(f"term power p must be a non-negative integer, got {self.p}")

    def __call__(self, r):
        u = r - self.s
        if self.q == 2:
            u = u * u
        return self.c * _ipow(r, int(self.p)) * np.exp(-self.b * u)


@dataclass(frozen=True)
class PotentialModel:
    """Sum of PotentialTerm; an empty term list is the zero potential."""

    terms: tuple[PotentialTerm, ...] = ()


def eval_potential(model: PotentialModel, r):
    """Evaluate V(r) at real or complex radius r (scalar or array).

    Raises ConfigError for non-finite input.
    """
    arr = np.asarray(r, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ConfigError("potential evaluated at non-finite radius")
    total = np.zeros_like(arr)
    for term in model.terms:
        total = total + term(arr)
    if np.ndim(r) == 0:
        return complex(total)
    return total


# 7.5 r^2 exp(-r): the barrier-top benchmark potential used by the built-in
# reference tables.
R2_EXP_POTENTIAL = PotentialModel((PotentialTerm(c=7.5, p=2, b=1.0, s=0.0, q=1),))

# 5 exp(-(r-1/2)^2/4) - 8 exp(-r^2/5): Gaussian barrier over a Gaussian well.
GAUSSIAN_WELL_POTENTIAL = PotentialModel(
    (
        PotentialTerm(c=5.0, p=0, b=0.25, s=0.5, q=2),
        PotentialTerm(c=-8.0, p=0, b=0.2, s=0.0, q=2),
    )
)
