import numpy as np
import pytest
from numpy.testing import assert_allclose

from tricoil.config import ConfigError, ScenarioConfig, parse_config, serialize_config

PAPER_SCENARIO_DOC = """
{
  "turns": 10,
  "radius": 0.1,
  "wire_resistance_per_meter": 0.01,
  "current_amplitude": 2.0,
  "rx_center": [1.0, 1.0, 1.5],
  "delta": 0.025,
  "angles": 360,
  "seed": 42
}
"""


class TestParse:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("{}")
        assert cfg == ScenarioConfig()
        assert cfg.delta == 0.025
        assert cfg.rx_center == (1.0, 1.0, 1.5)
        assert cfg.turns == 10
        assert cfg.radius == 0.1
        assert cfg.wire_resistance_per_meter == 0.01
        assert cfg.current_amplitude == 2.0

    def test_bytes_input(self):
        assert parse_config(b"{}") == ScenarioConfig()

    def test_reference_scenario_derived_resistance(self):
        cfg = parse_config(PAPER_SCENARIO_DOC)
        assert_allclose(cfg.link_params().r_t, 0.06283, rtol=1e-3)
        assert_allclose(cfg.link_params().r_t, 0.01 * 2 * np.pi * 0.1 * 10, rtol=1e-15)

    def test_negative_radius_names_field(self):
        with pytest.raises(ConfigError, match="radius"):
            parse_config('{"radius": -1.0}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="wobble"):
            parse_config('{"wobble": 3}')

    def test_malformed_json_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config('{\n  "radius": 0.1,\n  "turns": ]\n}')

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config("[1, 2, 3]")

    def test_bad_center_rejected(self):
        with pytest.raises(ConfigError, match="rx_center"):
            parse_config('{"rx_center": [1.0, 2.0]}')
        with pytest.raises(ConfigError, match="rx_center"):
            parse_config('{"rx_center": [0.0, 0.0, 0.0]}')

    def test_bad_modes_rejected(self):
        with pytest.raises(ConfigError, match="frame_mode"):
            parse_config('{"frame_mode": "diagonal"}')
        with pytest.raises(ConfigError, match="formula_mode"):
            parse_config('{"formula_mode": "mystery"}')

    def test_bad_strategies_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys: strategies"):
            parse_config('{"strategies": ["joint", "psychic"]}')

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_config(b"\xff\xfe{}")


class TestRoundTrip:
    def test_default_round_trip(self):
        cfg = ScenarioConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_custom_round_trip(self):
        cfg = parse_config(
            '{"turns": 7, "radius": 0.25, "delta": 0.003, "angles": 90, '
            '"frame_mode": "paper", '
            '"formula_mode": "paper", "z_r": 0.5, "out_dir": "results"}'
        )
        assert parse_config(serialize_config(cfg)) == cfg
        assert cfg.frame_mode == "paper"
        assert cfg.z_r == 0.5
        assert cfg.z_l is None


class TestScenarioConstruction:
    def test_matched_impedances_default(self):
        cfg = ScenarioConfig()
        link = cfg.link_params()
        assert link.z_r == link.z_l == pytest.approx(link.r_t)

    def test_explicit_impedance_override(self):
        cfg = parse_config('{"z_r": 2.0, "z_l": 3.0}')
        link = cfg.link_params()
        assert link.z_r == 2.0
        assert link.z_l == 3.0

    def test_scenario_carries_modes(self):
        cfg = parse_config('{"frame_mode": "paper", "formula_mode": "paper"}')
        scenario = cfg.scenario()
        assert scenario.frame_mode == "paper"
        assert scenario.formula_mode == "paper"
        scenario.mutual_at(1.0)  # paper formula accepts the default transmitter
