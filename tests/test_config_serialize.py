"""Round-trip tests for config serialisation."""

import pytest

from dataclasses import replace

from repro.config.parameters import (
    ExperimentConfig,
    LIFParameters,
    LTDMode,
    QuantizationConfig,
    RoundingMode,
    STDPKind,
)
from repro.config.presets import get_preset
from repro.config.serialize import config_from_dict, config_to_dict, load_json, save_json
from repro.errors import ConfigurationError


class TestDictRoundTrip:
    def test_lif_round_trip(self):
        p = LIFParameters(a=-5.0, b=-0.1, refractory_ms=3.0)
        assert config_from_dict(config_to_dict(p)) == p

    def test_experiment_round_trip(self):
        cfg = get_preset("8bit", stdp_kind=STDPKind.DETERMINISTIC, n_neurons=13)
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg

    def test_enums_serialise_as_values(self):
        q = QuantizationConfig(fmt="Q0.4", rounding=RoundingMode.STOCHASTIC)
        data = config_to_dict(q)
        assert data["rounding"] == {"__enum__": "RoundingMode", "value": "stochastic"}

    def test_type_tag_present(self):
        assert config_to_dict(LIFParameters())["__type__"] == "LIFParameters"

    def test_unknown_type_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"__type__": "Nonsense"})

    def test_missing_tag_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"a": 1})

    def test_non_config_object_rejected(self):
        with pytest.raises(ConfigurationError):
            config_to_dict({"plain": "dict"})


class TestJsonFiles:
    def test_save_load_round_trip(self, tmp_path):
        cfg = get_preset("high_frequency", n_neurons=7, seed=99)
        path = tmp_path / "config.json"
        save_json(cfg, path)
        assert load_json(path) == cfg

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_json(path)

    def test_validation_still_applies_on_load(self, tmp_path):
        cfg = ExperimentConfig()
        path = tmp_path / "config.json"
        save_json(cfg, path)
        text = path.read_text().replace("-74.7", "-10.0")  # v_reset above threshold
        path.write_text(text)
        with pytest.raises(ConfigurationError):
            load_json(path)


class TestEngineConfigSerialization:
    def test_engine_config_round_trip(self):
        from repro.config.parameters import EngineConfig

        cfg = EngineConfig(train="reference", eval="batched")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_experiment_carries_engine_selection(self, tmp_path):
        from dataclasses import replace
        from repro.config.parameters import EngineConfig

        cfg = replace(
            get_preset("4bit", n_neurons=5),
            engine=EngineConfig(train="reference", eval="qfused"),
        )
        path = tmp_path / "cfg.json"
        save_json(cfg, path)
        restored = load_json(path)
        assert restored == cfg
        assert restored.engine.train == "reference"
        assert restored.engine.eval == "qfused"

    def test_unknown_engine_name_rejected_on_load(self):
        data = config_to_dict(get_preset("4bit", n_neurons=5))
        data["engine"]["train"] = "warp"
        with pytest.raises(ConfigurationError, match="unknown engine 'warp'"):
            config_from_dict(data)

    def test_error_lists_registered_engines(self):
        from repro.config.parameters import EngineConfig

        with pytest.raises(ConfigurationError, match="registered engines"):
            EngineConfig(eval="warp")

    def test_legacy_payload_without_engine_gets_defaults(self):
        data = config_to_dict(get_preset("4bit", n_neurons=5))
        del data["engine"]
        restored = config_from_dict(data)
        assert restored.engine.train == "fused"
        assert restored.engine.eval == "fused"


class TestLTDModeSerialization:
    def test_ltd_mode_round_trips(self):
        cfg = get_preset("float32", n_neurons=5)
        cfg = replace(
            cfg, stochastic_stdp=replace(cfg.stochastic_stdp, ltd_mode=LTDMode.PAIR)
        )
        data = config_to_dict(cfg)
        assert data["stochastic_stdp"]["ltd_mode"] == {"__enum__": "LTDMode", "value": "pair"}
        assert config_from_dict(data) == cfg

    def test_payload_without_ltd_mode_loads_as_post_event(self):
        data = config_to_dict(get_preset("float32", n_neurons=5))
        del data["stochastic_stdp"]["ltd_mode"]
        restored = config_from_dict(data)
        assert restored.stochastic_stdp.ltd_mode is LTDMode.POST_EVENT

    def test_ltd_mode_must_be_an_enum_member(self):
        from repro.config.parameters import StochasticSTDPParameters

        with pytest.raises(ConfigurationError, match="ltd_mode"):
            StochasticSTDPParameters(ltd_mode="pair")
