"""Tests for YAML config parsing, validation, and round-trips."""

import copy
import dataclasses
import math
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeplane import config
from chargeplane.basis import MAX_ORDER, ChannelConfig
from chargeplane.config import load_config, parse_config
from chargeplane.errors import ConfigError
from chargeplane.potential import PotentialTerm
from chargeplane.resonance import DEFAULT_IM_SCHEDULE
from chargeplane.trajectory import EnergyGrid

FULL = {
    "potential": [
        {"c": 7.5, "p": 2, "b": 1.0, "q": 1},
        {"c": -8.0, "p": 0, "b": 0.2, "s": 0.0, "q": 2},
    ],
    "channel": {"l": 1, "n_basis": 120, "scale": 20.0, "theta": 0.7, "quad_size": 150},
    "scan": {
        "energy": {"re": 3.0, "im": -0.5},
        "grid": {"re_start": 0.0, "re_end": 10.0, "steps": 101, "im_part": -0.4},
        "guess": {"re": 3.4, "im": -0.01},
        "z_targets": [0.0, -1.0],
        "im_schedule": [-0.1, -0.4],
        "window": 0.75,
    },
    "stability": {
        "lambda_values": [10.0, 20.0],
        "theta_values": [0.6, 0.7],
        "n_values": [120],
        "tolerance": 1e-7,
    },
    "table": {"tables": ["table1"], "tolerance": 1e-6},
}

# where a section sits in FULL -> the dataclass it is read into, and the
# name errors give it
SECTIONS = {
    (): (config.RunConfig, "config root"),
    ("channel",): (ChannelConfig, "channel"),
    ("scan",): (config.ScanConfig, "scan"),
    ("scan", "grid"): (EnergyGrid, "scan.grid"),
    ("scan", "energy"): (config._Pair, "scan.energy"),
    ("scan", "guess"): (config._Pair, "scan.guess"),
    ("stability",): (config.StabilityConfig, "stability"),
    ("table",): (config.TableConfig, "table"),
    ("potential", 1): (PotentialTerm, "potential term 1"),
}
NESTED = {path: name for path, (_, name) in SECTIONS.items() if path}


def _at(data, path):
    for key in path:
        data = data[key]
    return data


class TestParseConfig:
    def test_full_document(self):
        cfg = parse_config(FULL)
        assert cfg.channel.l == 1
        assert cfg.channel.quad_size == 150
        assert cfg.scan.energy == 3.0 - 0.5j
        assert cfg.scan.guess == 3.4 - 0.01j
        assert cfg.scan.grid.steps == 101
        assert cfg.scan.grid.im_part == -0.4
        assert cfg.scan.z_targets == (0.0, -1.0)
        assert cfg.scan.window == 0.75
        assert cfg.stability.lambda_values == (10.0, 20.0)
        assert cfg.stability.tolerance == 1e-7
        assert cfg.table.tolerance == 1e-6
        assert len(cfg.potential.terms) == 2

    def test_minimal_document_defaults(self):
        cfg = parse_config(
            {"channel": {"n_basis": 50, "scale": 4.0}}
        )
        assert cfg.channel.l == 0
        assert cfg.channel.theta == 0.0
        assert cfg.channel.quad_size == 50
        assert cfg.potential.terms == ()
        assert cfg.scan.im_schedule == DEFAULT_IM_SCHEDULE
        assert cfg.scan.window == 0.5

    def test_missing_channel(self):
        with pytest.raises(ConfigError, match="channel"):
            parse_config({"potential": []})

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra=1),
            lambda d: d["channel"].update(typo=1),
            lambda d: d["scan"].update(windw=0.5),
            lambda d: d["scan"]["grid"].update(step=3),
            lambda d: d["stability"].update(lam=1),
            lambda d: d["table"].update(rows=2),
            lambda d: d["scan"]["energy"].update(x=1),
        ],
    )
    def test_unknown_keys_rejected_everywhere(self, mutate):
        import copy

        data = copy.deepcopy(FULL)
        mutate(data)
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config(data)

    def test_bad_scalar_reported_as_config_error(self):
        import copy

        data = copy.deepcopy(FULL)
        data["channel"]["scale"] = "twenty"
        with pytest.raises(ConfigError):
            parse_config(data)

    @pytest.mark.parametrize(
        "key,values",
        [
            ("lambda_values", [20.0, 0.0]),
            ("lambda_values", [-20.0]),
            ("lambda_values", [20.0, float("inf")]),
            ("lambda_values", [float("nan")]),
            ("theta_values", [0.7, 2.0]),
            ("theta_values", [-0.1]),
            ("theta_values", [math.pi / 2]),
            ("theta_values", [float("nan")]),
            ("n_values", [120, 0]),
            ("n_values", [-3]),
            ("n_values", [120, MAX_ORDER + 1]),
        ],
    )
    def test_every_stability_grid_value_checked(self, key, values):
        import copy

        data = copy.deepcopy(FULL)
        data["stability"][key] = values
        with pytest.raises(ConfigError, match=f"stability.{key}"):
            parse_config(data)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("scan.z_targets", [0.0, float("inf")]),
            ("scan.z_targets", [-math.inf]),
            ("scan.z_targets", [float("nan")]),
            ("scan.im_schedule", [-0.1, float("nan")]),
            ("channel.scale", float("inf")),
        ],
    )
    def test_non_finite_value_names_its_key(self, key, value):
        import copy

        data = copy.deepcopy(FULL)
        section, name = key.split(".")
        data[section][name] = value
        with pytest.raises(ConfigError, match=key):
            parse_config(data)

    def test_stability_grid_edges_accepted(self):
        import copy

        data = copy.deepcopy(FULL)
        data["stability"].update(
            lambda_values=[1e-300], theta_values=[0.0, 1.5], n_values=[1, MAX_ORDER]
        )
        st_cfg = parse_config(data).stability
        assert (st_cfg.lambda_values, st_cfg.theta_values, st_cfg.n_values) == (
            (1e-300,), (0.0, 1.5), (1, MAX_ORDER)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        l=st.integers(0, 5),
        n_basis=st.integers(1, 300),
        oversample=st.integers(0, 50),
        scale=st.floats(1e-3, 1e3),
        theta=st.floats(0.0, 1.5),
        re_start=st.floats(-50.0, 50.0),
        width=st.floats(1e-3, 50.0),
        steps=st.integers(2, 500),
        im_part=st.floats(-30.0, 30.0),
        im_schedule=st.lists(st.floats(-30.0, 0.0), max_size=8),
        window=st.floats(0.0, 5.0),
    )
    def test_parsed_fields_match_document(
        self, l, n_basis, oversample, scale, theta, re_start, width, steps, im_part,
        im_schedule, window,
    ):
        data = {
            "channel": {"l": l, "n_basis": n_basis, "scale": scale, "theta": theta,
                        "quad_size": n_basis + oversample},
            "scan": {
                "grid": {"re_start": re_start, "re_end": re_start + width, "steps": steps,
                         "im_part": im_part},
                "im_schedule": im_schedule,
                "window": window,
            },
        }
        cfg = parse_config(yaml.safe_load(yaml.safe_dump(data)))
        ch, grid = cfg.channel, cfg.scan.grid
        assert (ch.l, ch.n_basis, ch.scale, ch.theta, ch.quad_size) == (
            l, n_basis, scale, theta, n_basis + oversample
        )
        assert (grid.re_start, grid.re_end, grid.steps, grid.im_part) == (
            re_start, re_start + width, steps, im_part
        )
        assert cfg.scan.im_schedule == tuple(im_schedule)
        assert cfg.scan.window == window

    @pytest.mark.parametrize("value", [5, "x", [1]], ids=["int", "str", "list"])
    @pytest.mark.parametrize("path", NESTED, ids=NESTED.values())
    def test_non_mapping_section_names_the_section(self, path, value):
        data = copy.deepcopy(FULL)
        _at(data, path[:-1])[path[-1]] = value
        with pytest.raises(ConfigError, match=f"^{re.escape(NESTED[path])} must be a mapping"):
            parse_config(data)

    @pytest.mark.parametrize("path", SECTIONS, ids=[name for _, name in SECTIONS.values()])
    def test_section_keys_are_its_dataclass_fields(self, path):
        cls, name = SECTIONS[path]
        data = copy.deepcopy(FULL)
        section = _at(data, path)
        assert set(section) == {f.name for f in dataclasses.fields(cls)}  # FULL has every key
        parse_config(data)
        section["not_a_field"] = 1
        with pytest.raises(ConfigError, match=f"unknown keys in {re.escape(name)}: "):
            parse_config(data)

    def test_every_reader_reads_a_field(self):
        names = {f.name for cls, _ in SECTIONS.values() for f in dataclasses.fields(cls)}
        assert set(config._READERS) <= names

    def test_tables_must_be_a_list_of_names(self):
        with pytest.raises(ConfigError, match="table.tables"):
            parse_config({**FULL, "table": {"tables": "table1"}})

    def test_non_mapping_root(self):
        with pytest.raises(ConfigError, match="mapping"):
            parse_config([1, 2, 3])


class TestRoundTrip:
    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(FULL), encoding="utf-8")
        cfg = load_config(path)
        assert cfg == parse_config(FULL)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_load_config_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("channel: {n_basis: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)
