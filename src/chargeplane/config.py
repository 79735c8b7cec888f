"""Run configuration: a single YAML file with nested sections.

The file is the archival record of a run: all physics parameters live here,
while command-line flags cover only output paths and plot emission.
Unknown keys are rejected everywhere so a typo cannot silently change a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import yaml

from .basis import ChannelConfig
from .errors import ChargePlaneError, ConfigError
from .potential import PotentialModel, parse_integer, parse_potential
from .resonance import DEFAULT_IM_SCHEDULE
from .trajectory import EnergyGrid


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _complex_pair(entry, where: str) -> complex:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be a mapping with re/im")
    _check_keys(entry, ("re", "im"), where)
    try:
        return complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _convert(convert, value, where: str):
    """convert(value), with a malformed value raised as a ConfigError naming its key."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _number_list(convert, valid, expected: str):
    """A parser of one list of numbers: every entry converted and checked,
    whether or not a run ever reaches it."""

    def parse(values) -> tuple:
        out = tuple(map(convert, values))
        if not all(map(valid, out)):
            raise ValueError(f"expected {expected}, got {list(out)}")
        return out

    return parse


def _tolerance(value) -> float:
    number = float(value)
    if not 0 <= number < math.inf:
        raise ValueError(f"expected a finite tolerance >= 0, got {value!r}")
    return number


@dataclass(frozen=True)
class ScanConfig:
    """Targets and energy ranges for eigs/sweep/find/scan commands."""

    energy: complex | None = None
    grid: EnergyGrid | None = None
    guess: complex | None = None
    z_targets: tuple[float, ...] = ()
    im_schedule: tuple[float, ...] = DEFAULT_IM_SCHEDULE  # scan: min(...) <= Im E < 0
    window: float = 0.5  # accepted for existing configs; no command reads it


@dataclass(frozen=True)
class StabilityConfig:
    """Parameter grids for stability verification."""

    lambda_values: tuple[float, ...] = ()
    theta_values: tuple[float, ...] = ()
    n_values: tuple[int, ...] = ()
    tolerance: float = 1e-8


@dataclass(frozen=True)
class TableConfig:
    """Which built-in reference tables to reproduce and at what tolerance."""

    tables: tuple[str, ...] = ("table1",)
    tolerance: float | None = None


@dataclass(frozen=True)
class RunConfig:
    potential: PotentialModel = field(default_factory=PotentialModel)
    channel: ChannelConfig = None
    scan: ScanConfig = field(default_factory=ScanConfig)
    stability: StabilityConfig = field(default_factory=StabilityConfig)
    table: TableConfig = field(default_factory=TableConfig)


def parse_config(data: dict) -> RunConfig:
    """Validate and build a RunConfig from a parsed YAML mapping."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(data, ("potential", "channel", "scan", "stability", "table"), "config root")

    model = parse_potential(data.get("potential"))

    ch = data.get("channel")
    if ch is None:
        raise ConfigError("config is missing the channel section")
    _check_keys(ch, ("l", "n_basis", "scale", "theta", "quad_size"), "channel")
    try:
        channel = ChannelConfig(
            l=_convert(parse_integer, ch.get("l", 0), "channel.l"),
            n_basis=_convert(parse_integer, ch["n_basis"], "channel.n_basis"),
            scale=_convert(float, ch["scale"], "channel.scale"),
            theta=float(ch.get("theta", 0.0)),
            quad_size=_convert(parse_integer, ch["quad_size"], "channel.quad_size")
            if "quad_size" in ch
            else None,
        )
    except KeyError as exc:
        raise ConfigError(f"channel section is missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"channel: {exc}") from exc

    sc = data.get("scan", {}) or {}
    _check_keys(sc, ("energy", "grid", "guess", "z_targets", "im_schedule", "window"), "scan")
    grid = None
    if "grid" in sc:
        g = sc["grid"]
        _check_keys(g, ("re_start", "re_end", "steps", "im_part"), "scan.grid")
        try:
            grid = EnergyGrid(
                re_start=float(g["re_start"]),
                re_end=float(g["re_end"]),
                steps=_convert(parse_integer, g["steps"], "scan.grid.steps"),
                im_part=float(g.get("im_part", 0.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"scan.grid is missing {exc}") from exc
        except ConfigError:
            raise
        except (TypeError, ValueError, ChargePlaneError) as exc:
            raise ConfigError(f"scan.grid: {exc}") from exc
    finite = _number_list(float, math.isfinite, "finite values")
    im_schedule = _convert(finite, sc.get("im_schedule", DEFAULT_IM_SCHEDULE), "scan.im_schedule")
    scan = ScanConfig(
        energy=_complex_pair(sc["energy"], "scan.energy") if "energy" in sc else None,
        grid=grid,
        guess=_complex_pair(sc["guess"], "scan.guess") if "guess" in sc else None,
        z_targets=_convert(finite, sc.get("z_targets", ()), "scan.z_targets"),
        im_schedule=im_schedule,
        window=_convert(float, sc.get("window", 0.5), "scan.window"),
    )

    st = data.get("stability", {}) or {}
    _check_keys(st, ("lambda_values", "theta_values", "n_values", "tolerance"), "stability")
    lambdas = _number_list(float, lambda v: 0 < v < math.inf, "finite values > 0")
    thetas = _number_list(float, lambda v: 0 <= v < math.pi / 2, "values in [0, pi/2)")
    ns = _number_list(parse_integer, lambda v: v >= 1, "integers >= 1")
    stability = StabilityConfig(
        lambda_values=_convert(lambdas, st.get("lambda_values", ()), "stability.lambda_values"),
        theta_values=_convert(thetas, st.get("theta_values", ()), "stability.theta_values"),
        n_values=_convert(ns, st.get("n_values", ()), "stability.n_values"),
        tolerance=_convert(_tolerance, st.get("tolerance", 1e-8), "stability.tolerance"),
    )

    tb = data.get("table", {}) or {}
    _check_keys(tb, ("tables", "tolerance"), "table")
    tolerance = None
    if "tolerance" in tb:
        tolerance = _convert(_tolerance, tb["tolerance"], "table.tolerance")
    table = TableConfig(tables=tuple(tb.get("tables", ("table1",))), tolerance=tolerance)

    return RunConfig(potential=model, channel=channel, scan=scan, stability=stability, table=table)


def load_config(path) -> RunConfig:
    """Parse a YAML config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return parse_config(data)

