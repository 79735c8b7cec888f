"""Built-in benchmark tables and their reproduction.

Reference resonance values ship as a versioned data file with per-row
provenance; comparisons run the standard refinement from a coarse guess
(reference rounded to two decimals) so agreement is a genuine recomputation,
not an echo of the stored value. Rows of one channel share its cached
assembly (`resonance.shared_hamiltonian`), within a table and across tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources

from .basis import ChannelConfig
from .errors import ConfigError
from .potential import R2_EXP_POTENTIAL
from .resonance import refine_resonance

DEFAULT_CHANNEL = dict(n_basis=200, scale=20.0, theta=0.7, quad_size=200)

# Absolute tolerance for the high-precision table; the spot table instead
# uses LAST_DIGIT_UNITS units in the last printed digit of each entry.
TABLE1_TOLERANCE = 1e-7
LAST_DIGIT_UNITS = 5.0

# Computed values and their differences are printed at this many decimals,
# a fixed absolute resolution. Between LU and LDL^T factorizations, BLAS at
# 1 and 2 threads, and 1 to 3 start steps of the refinement, no table value
# moves by more than 3.6e-14; at 10 decimals none lies within 1.3e-12 of a
# rounding boundary, while at 11 two printed values differ between them. A
# significant-digit format would print Gamma ~ 1e-4 to 1e-16, below the
# pole's own accuracy.
PRINT_DECIMALS = 10


def load_reference_rows(table: str) -> list[dict]:
    data = json.loads(
        resources.files("chargeplane.data").joinpath("reference_values.json").read_text()
    )
    if table not in data or table.startswith("_"):
        known = [k for k in data if not k.startswith("_")]
        raise ConfigError(f"unknown reference table {table!r}; available: {known}")
    return data[table]


def last_digit_tolerance(printed: str) -> float:
    """LAST_DIGIT_UNITS times the place value of the last printed digit."""
    exponent = Decimal(printed).as_tuple().exponent
    return LAST_DIGIT_UNITS * 10.0 ** exponent


@dataclass(frozen=True)
class TableRow:
    z: float
    l: int
    ref_e_r: float
    ref_gamma: float
    computed_e_r: float
    computed_gamma: float
    tol_e_r: float
    tol_gamma: float
    converged: bool

    @property
    def ok(self) -> bool:
        return (
            self.converged
            and abs(self.computed_e_r - self.ref_e_r) <= self.tol_e_r
            and abs(self.computed_gamma - self.ref_gamma) <= self.tol_gamma
        )


def run_table(table: str, tolerance: float | None = None) -> list[TableRow]:
    """Recompute every row of a built-in table and compare.

    tolerance overrides the per-row default (absolute, applied to both E_r
    and Gamma).
    """
    rows = load_reference_rows(table)
    results = []
    for row in rows:
        e_r = float(row["e_r"])
        gamma = float(row["gamma"])
        if tolerance is not None:
            tol_e, tol_g = tolerance, tolerance
        elif table == "table1":
            tol_e = tol_g = TABLE1_TOLERANCE
        else:
            tol_e = last_digit_tolerance(row["e_r"])
            tol_g = last_digit_tolerance(row["gamma"])
        cfg = ChannelConfig(l=row["l"], **DEFAULT_CHANNEL)
        # Coarse guess: 2 decimals in E_r, 2 significant digits in Gamma, so
        # the comparison is a real recomputation rather than an echo.
        guess = round(e_r, 2) - 0.5j * float(f"{gamma:.2g}")
        res = refine_resonance(guess, float(row["z"]), cfg, R2_EXP_POTENTIAL)
        results.append(
            TableRow(
                z=float(row["z"]),
                l=row["l"],
                ref_e_r=e_r,
                ref_gamma=gamma,
                computed_e_r=res.e_r,
                computed_gamma=res.gamma,
                tol_e_r=tol_e,
                tol_gamma=tol_g,
                converged=res.converged,
            )
        )
    return results


def format_table(rows: list[TableRow]) -> str:
    """Human-readable computed-vs-reference listing with per-row diffs.

    Reference values print as stored; computed values and the |d| columns
    print at PRINT_DECIMALS decimals.
    """
    d = PRINT_DECIMALS
    header = (
        f"{'Z':>4} {'l':>2} {'E_r (ref)':>16} {'E_r (computed)':>18} {'|dE_r|':>12} "
        f"{'Gamma (ref)':>16} {'Gamma (computed)':>18} {'|dGamma|':>12} {'ok':>4}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.z:>4.0f} {r.l:>2d} {r.ref_e_r:>16.10g} {r.computed_e_r:>18.{d}f} "
            f"{abs(r.computed_e_r - r.ref_e_r):>12.{d}f} {r.ref_gamma:>16.10g} "
            f"{r.computed_gamma:>18.{d}f} {abs(r.computed_gamma - r.ref_gamma):>12.{d}f} "
            f"{'yes' if r.ok else 'NO':>4}"
        )
    return "\n".join(lines) + "\n"
