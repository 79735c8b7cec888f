"""The benchmark's two workloads: seeded inputs, one pass, and the checks.

Every pass calls the library through module attributes
(``resonance.refine_resonance``, ``resonance.auto_search``, ...) so the tracer in
``spans.py`` sees exactly the calls a user's code makes. Inputs are built from
the seed alone; the checks compare against the published reference values,
never against bytes of earlier output.

- ``table``: 24 reference poles (table1 + table2_spot) refined from coarse
  guesses. All refinement: no sweep and no branch matching.
- ``scan``: ``auto_search`` at N = 150 over the default Im-E schedule with
  stability verification, then the JSON. The full pipeline.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import chargeplane
from chargeplane import cli  # noqa: F401  -- a CLI user pays this import too
from chargeplane import config, output, resonance
from chargeplane.errors import ChargePlaneError

REFERENCE_FILE = Path(chargeplane.__file__).parent / "data" / "reference_values.json"

TABLE1_TOL = 1e-7
SCAN_TOL = 1e-7
# The four genuine Z = 0, l = 0 poles the default Im-E schedule reaches:
# table1 rows 0-2 and table2_spot row 0.
SCAN_POLES = (("table1", 0), ("table1", 1), ("table1", 2), ("table2_spot", 0))
CORRUPTION = 1e-3
# `table` jitters each coarse guess by up to this share of the box that
# reference.run_table rounds it to (±0.005 in E_r, ±5% in Gamma). Over the
# whole box the jitter moves rows between 2 and 3 Newton iterations (60-68 per
# pass, depending on the seed); within 5% of it every seed tried gives the
# same 53, so the work of a pass does not depend on the seed.
GUESS_JITTER = 0.05


@dataclass(frozen=True)
class Size:
    table_n: int
    scan_n: int
    scan_steps: int


SIZES = {
    "full": Size(table_n=200, scan_n=150, scan_steps=51),
    "tiny": Size(table_n=20, scan_n=20, scan_steps=5),
}

# The seed shifts the Re E grid by at most this share of one grid step. A
# larger shift changes which trajectory crossings are detected, and with them
# the number of refinements, so the work per pass would depend on the seed.
GRID_SHIFT = 0.01


@dataclass(frozen=True)
class RefRow:
    z: float
    cfg: chargeplane.ChannelConfig
    guess: complex
    e_r: float
    gamma: float
    tol_e_r: float
    tol_gamma: float


@dataclass(frozen=True)
class Inputs:
    workload: str
    run: config.RunConfig
    rows: tuple[RefRow, ...] = ()
    poles: tuple[complex, ...] = ()
    corrupt: bool = False


def _run_config(n_basis: int, grid: dict | None = None, window: float = 0.5):
    """The README's YAML config, parsed by the package's own config layer."""
    scan = {"z_targets": [0.0], "window": window}
    if grid is not None:
        scan["grid"] = grid
    return config.parse_config(
        {
            "potential": [{"c": 7.5, "p": 2, "b": 1.0, "q": 1}],
            "channel": {"l": 0, "n_basis": n_basis, "scale": 20.0, "theta": 0.7},
            "scan": scan,
        }
    )


def _last_digit_tol(printed: str) -> float:
    """5 units of the last printed digit."""
    return 5.0 * 10.0 ** Decimal(printed).as_tuple().exponent


def _shifted_grid(rng: random.Random, start: float, end: float, steps: int) -> dict:
    shift = rng.uniform(0.0, GRID_SHIFT) * (end - start) / (steps - 1)
    return {"re_start": start + shift, "re_end": end + shift, "steps": steps, "im_part": 0.0}


def build_inputs(workload: str, seed: int, size: Size = SIZES["full"],
                 corrupt: bool = False) -> Inputs:
    """Seeded inputs. `corrupt` moves one reference value by 1e-3, so the
    checks must count one failed operation per pass."""
    rng = random.Random(seed)
    refs = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if workload == "table":
        run = _run_config(size.table_n)
        return Inputs(workload, run, rows=_table_rows(rng, refs, run, corrupt), corrupt=corrupt)
    if workload == "scan":
        grid = _shifted_grid(rng, 0.0, 10.0, size.scan_steps)
        poles = [
            complex(float(refs[t][i]["e_r"]), -0.5 * float(refs[t][i]["gamma"]))
            for t, i in SCAN_POLES
        ]
        if corrupt:
            poles[0] += CORRUPTION
        return Inputs(workload, _run_config(size.scan_n, grid, window=1.0), poles=tuple(poles),
                      corrupt=corrupt)
    raise ValueError(f"unknown workload {workload!r}")


def _table_rows(rng: random.Random, refs: dict, run: config.RunConfig,
                corrupt: bool) -> tuple[RefRow, ...]:
    """The 24 reference rows, shuffled, each with a jittered coarse guess."""
    rows = []
    for table in ("table1", "table2_spot"):
        for row in refs[table]:
            e_r, gamma = float(row["e_r"]), float(row["gamma"])
            if table == "table1":
                tol_e = tol_g = TABLE1_TOL
            else:
                tol_e, tol_g = _last_digit_tol(row["e_r"]), _last_digit_tol(row["gamma"])
            # reference.run_table's coarse guess: 2 decimals in E_r, 2
            # significant digits in Gamma.
            guess = complex(
                round(e_r, 2) + GUESS_JITTER * rng.uniform(-0.005, 0.005),
                -0.5 * float(f"{gamma:.2g}") * (1.0 + GUESS_JITTER * rng.uniform(-0.05, 0.05)),
            )
            cfg = dataclasses.replace(run.channel, l=int(row["l"]))
            rows.append(RefRow(float(row["z"]), cfg, guess, e_r, gamma, tol_e, tol_g))
    if corrupt:
        rows[0] = dataclasses.replace(rows[0], e_r=rows[0].e_r + CORRUPTION)
    rng.shuffle(rows)
    return tuple(rows)


def warm_up(inp: Inputs) -> None:
    """One refinement, so that the first timed pass does not pay for the
    first calls into numpy and LAPACK."""
    if inp.workload == "table":
        row = inp.rows[0]
        resonance.refine_resonance(row.guess, row.z, row.cfg, inp.run.potential)
    else:
        resonance.refine_resonance(inp.poles[0], 0.0, inp.run.channel, inp.run.potential)


def run_pass(inp: Inputs):
    """Output of one pass of the workload.

    `table` refines each row (None for a row that raised); `scan` runs
    `auto_search` and formats its poles as JSON (None if it raised).
    """
    run = inp.run
    if inp.workload == "table":
        results = []
        for row in inp.rows:
            try:
                results.append(resonance.refine_resonance(row.guess, row.z, row.cfg,
                                                          run.potential))
            except ChargePlaneError:
                results.append(None)
        return results
    grid = run.scan.grid
    try:
        found = resonance.auto_search(
            run.channel,
            run.potential,
            run.scan.z_targets,
            im_schedule=run.scan.im_schedule,
            re_range=(grid.re_start, grid.re_end),
            steps=grid.steps,
            window=run.scan.window,
        )
    except ChargePlaneError:
        return None
    return output.resonances_to_json(found)


def check(inp: Inputs, out) -> tuple[int, int]:
    """(attempted, failed) operations of one pass; a pass that raised
    (`out` is None) fails every operation it attempted."""
    if inp.workload == "table":
        return _check_table(inp, out)
    return _check_scan(inp, out)


def _check_table(inp: Inputs, results) -> tuple[int, int]:
    failed = 0
    for row, res in zip(inp.rows, results):
        ok = (
            res is not None
            and res.converged
            and abs(res.e_r - row.e_r) <= row.tol_e_r
            and abs(res.gamma - row.gamma) <= row.tol_gamma
        )
        failed += not ok
    return len(inp.rows), failed


def _check_scan(inp: Inputs, text: str | None) -> tuple[int, int]:
    """One operation per expected pole, plus one per unexpected plateau pole.

    An expected pole fails unless a converged plateau pole lies within 1e-7
    of it in both E_r and Im E; a plateau pole matching none fails as well.
    """
    if text is None:
        return len(inp.poles), len(inp.poles)
    matched: set[int] = set()
    extras = 0
    for rec in json.loads(text):
        if not (rec["converged"] and rec.get("stability", {}).get("plateau")):
            continue
        energy = complex(rec["e_r"], -0.5 * rec["gamma"])
        hits = [
            i for i, pole in enumerate(inp.poles)
            if abs(energy.real - pole.real) <= SCAN_TOL and abs(energy.imag - pole.imag) <= SCAN_TOL
        ]
        if hits and hits[0] not in matched:
            matched.add(hits[0])
        else:
            extras += 1
    missing = len(inp.poles) - len(matched)
    return len(inp.poles) + extras, missing + extras
