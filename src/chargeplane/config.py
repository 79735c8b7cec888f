"""Run configuration: a single YAML file with nested sections.

The file is the archival record of a run: all physics parameters live here,
while command-line flags cover only output paths and plot emission.
Every section is read into one frozen dataclass by `_section`: the root into
RunConfig, then ChannelConfig, ScanConfig with its EnergyGrid, StabilityConfig,
TableConfig and one PotentialTerm per potential term. The keys a section
accepts are exactly its dataclass's fields; a field without a default is a
required key, and any other key is rejected, so a typo cannot silently
change a run. `_READERS` says how each key that is not a plain number is read.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .basis import MAX_ORDER, ChannelConfig, integer
from .errors import ChargePlaneError, ConfigError
from .potential import PotentialModel, PotentialTerm
from .resonance import DEFAULT_IM_SCHEDULE, STABILITY_TOL
from .trajectory import EnergyGrid


def _number(value) -> float:
    """A config number as a float; YAML's true and false are not numbers."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _list(convert, valid, expected: str):
    """A reader of one list: every entry converted and checked, whether or
    not a run ever reaches it."""

    def read(values) -> tuple:
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"expected a list of {expected}, got {values!r}")
        out = tuple(map(convert, values))
        if not all(map(valid, out)):
            raise ValueError(f"expected {expected}, got {list(out)}")
        return out

    return read


def _tolerance(value) -> float:
    number = _number(value)
    if not 0 <= number < math.inf:
        raise ValueError(f"expected a finite tolerance >= 0, got {value!r}")
    return number


@dataclass(frozen=True)
class _Pair:
    """A complex number written as a mapping: re + i * im."""

    re: float = 0.0
    im: float = 0.0


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
    """Parameter grids for stability verification; an empty list takes its
    default in `resonance.stability_reports`."""

    lambda_values: tuple[float, ...] = ()
    theta_values: tuple[float, ...] = ()
    n_values: tuple[int, ...] = ()
    tolerance: float = STABILITY_TOL


@dataclass(frozen=True)
class TableConfig:
    """Which built-in reference tables to reproduce and at what tolerance."""

    tables: tuple[str, ...] = ("table1",)
    tolerance: float | None = None


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    potential: PotentialModel = field(default_factory=PotentialModel)
    channel: ChannelConfig
    scan: ScanConfig = field(default_factory=ScanConfig)
    stability: StabilityConfig = field(default_factory=StabilityConfig)
    table: TableConfig = field(default_factory=TableConfig)


def _section(cls, data, where: str):
    """The dataclass cls built from one config mapping, data.

    Each key is read by its entry in _READERS, or as a float if it has none:
    a dataclass reader reads a nested section, in which null reads as an
    empty mapping, and `complex` reads a re/im _Pair. `where` names a key in
    errors when its name is appended: "" at the root, "scan.grid." in a
    section, "potential term 0: " in a potential term. A malformed value, or
    a ChargePlaneError raised by cls itself, becomes a ConfigError that
    names the section or key.
    """
    name = where.rstrip(".: ") or "config root"
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a mapping, got {data!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    for key, f in known.items():
        if key not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{name} is missing {key!r}")
    values = {}
    for key, value in data.items():
        reader = _READERS.get(key, _number)
        if reader is complex:
            pair = _section(_Pair, value, f"{where}{key}.")
            values[key] = complex(pair.re, pair.im)
        elif is_dataclass(reader):
            values[key] = _section(reader, {} if value is None else value, f"{where}{key}.")
        else:
            try:
                values[key] = reader(value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{where}{key}: {exc}") from exc
    try:
        return cls(**values)
    except ChargePlaneError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_potential(fragment) -> PotentialModel:
    """Build a PotentialModel from a config fragment (list of term mappings).

    Each term is a mapping whose keys are PotentialTerm's fields, all
    optional except the coefficient c. Unknown keys are rejected. Errors
    name the offending term and key.
    """
    if fragment is None:
        return PotentialModel()
    if not isinstance(fragment, (list, tuple)):
        raise ConfigError("potential must be a list of terms")
    return PotentialModel(
        tuple(_section(PotentialTerm, t, f"potential term {i}: ") for i, t in enumerate(fragment))
    )


# every key whose value is not one plain number, with its reader; keyed by
# name alone, so a key means the same in every section that has it
_READERS = {
    "potential": parse_potential,
    "channel": ChannelConfig,
    "scan": ScanConfig,
    "stability": StabilityConfig,
    "table": TableConfig,
    "grid": EnergyGrid,
    "energy": complex,
    "guess": complex,
    **dict.fromkeys(("l", "n_basis", "quad_size", "steps", "p", "q"), integer),
    **dict.fromkeys(("z_targets", "im_schedule"), _list(_number, math.isfinite, "finite values")),
    "lambda_values": _list(_number, lambda v: 0 < v < math.inf, "finite values > 0"),
    "theta_values": _list(_number, lambda v: 0 <= v < math.pi / 2, "values in [0, pi/2)"),
    "n_values": _list(
        integer, lambda v: 1 <= v <= MAX_ORDER, f"integers in [1, {MAX_ORDER}]"
    ),
    "tolerance": _tolerance,
    "tables": _list(lambda name: name, lambda name: isinstance(name, str), "names"),
}


def parse_config(data: dict) -> RunConfig:
    """Validate and build a RunConfig from a parsed YAML mapping."""
    return _section(RunConfig, data, "")


def load_config(path) -> RunConfig:
    """Parse a YAML config file. PyYAML is imported here, so importing the
    package does not load it."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return parse_config(data)
