"""Unit tests for the parameter dataclasses and their validation."""

import pytest

from repro.config.parameters import (
    DeterministicSTDPParameters,
    EncodingParameters,
    ExperimentConfig,
    LIFParameters,
    QuantizationConfig,
    RoundingMode,
    SimulationParameters,
    STDPKind,
    StochasticSTDPParameters,
    WTAParameters,
)
from repro.errors import ConfigurationError


class TestLIFParameters:
    def test_paper_defaults(self):
        p = LIFParameters()
        assert p.a == -6.77
        assert p.b == -0.0989
        assert p.c == 0.314
        assert p.v_threshold == -60.2
        assert p.v_reset == -74.7

    def test_rest_potential_between_reset_and_threshold(self):
        p = LIFParameters()
        assert p.v_reset < p.rest_potential < p.v_threshold

    def test_membrane_tau_is_inverse_leak(self):
        p = LIFParameters()
        assert p.membrane_tau_ms == pytest.approx(1.0 / 0.0989)

    def test_rheobase_drives_fixed_point_to_threshold(self):
        p = LIFParameters()
        i_rh = p.rheobase_current()
        fixed_point = (p.a + p.c * i_rh) / -p.b
        assert fixed_point == pytest.approx(p.v_threshold)

    def test_reset_above_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(v_reset=-50.0, v_threshold=-60.0)

    def test_positive_leak_rejected(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(b=0.1)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(a=float("nan"))

    def test_negative_refractory_rejected(self):
        with pytest.raises(ConfigurationError):
            LIFParameters(refractory_ms=-1.0)


class TestDeterministicSTDPParameters:
    def test_g_range(self):
        p = DeterministicSTDPParameters(g_max=1.0, g_min=0.25)
        assert p.g_range == pytest.approx(0.75)

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigurationError):
            DeterministicSTDPParameters(g_max=0.0, g_min=1.0)

    @pytest.mark.parametrize("field, value", [
        ("alpha_p", 0.0),
        ("alpha_d", -0.1),
        ("window_ms", 0.0),
    ])
    def test_nonpositive_rates_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            DeterministicSTDPParameters(**{field: value})


class TestStochasticSTDPParameters:
    def test_gamma_bounds(self):
        with pytest.raises(ConfigurationError):
            StochasticSTDPParameters(gamma_pot=1.5)
        with pytest.raises(ConfigurationError):
            StochasticSTDPParameters(gamma_dep=0.0)

    def test_tau_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            StochasticSTDPParameters(tau_pot_ms=0.0)
        with pytest.raises(ConfigurationError):
            StochasticSTDPParameters(tau_dep_post_ms=-5.0)


class TestQuantizationConfig:
    def test_float_default(self):
        q = QuantizationConfig()
        assert q.is_floating_point
        assert q.rounding is RoundingMode.NEAREST

    def test_fixed_point(self):
        q = QuantizationConfig(fmt="Q1.7", rounding=RoundingMode.STOCHASTIC)
        assert not q.is_floating_point

    def test_malformed_fmt_rejected(self):
        with pytest.raises(ConfigurationError):
            QuantizationConfig(fmt="8bit")


class TestEncodingParameters:
    def test_paper_default_range(self):
        e = EncodingParameters()
        assert (e.f_min_hz, e.f_max_hz) == (1.0, 22.0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigurationError):
            EncodingParameters(f_min_hz=30.0, f_max_hz=20.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            EncodingParameters(kind="burst")

    def test_with_frequency_range_preserves_other_fields(self):
        e = EncodingParameters(invert=True, kind="periodic")
        boosted = e.with_frequency_range(5.0, 78.0)
        assert boosted.f_max_hz == 78.0
        assert boosted.invert is True
        assert boosted.kind == "periodic"


class TestWTAParameters:
    def test_defaults_valid(self):
        w = WTAParameters()
        assert w.n_neurons == 100
        assert w.single_winner

    def test_zero_neurons_rejected(self):
        with pytest.raises(ConfigurationError):
            WTAParameters(n_neurons=0)

    def test_init_band_validation(self):
        with pytest.raises(ConfigurationError):
            WTAParameters(g_init_low=0.7, g_init_high=0.3)


class TestSimulationParameters:
    def test_steps_per_image(self):
        s = SimulationParameters(dt_ms=0.5, t_learn_ms=100.0)
        assert s.steps_per_image == 200

    def test_rest_steps(self):
        s = SimulationParameters(dt_ms=1.0, t_rest_ms=20.0)
        assert s.rest_steps == 20

    def test_t_learn_below_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(dt_ms=2.0, t_learn_ms=1.0)

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationParameters(dt_ms=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            SimulationParameters(seed=-1)


class TestExperimentConfig:
    def test_describe_mentions_key_facts(self):
        cfg = ExperimentConfig(name="demo", stdp_kind=STDPKind.DETERMINISTIC)
        text = cfg.describe()
        assert "demo" in text
        assert "deterministic" in text
        assert "float32" in text

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(name="")
