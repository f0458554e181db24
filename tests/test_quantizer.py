"""Tests for quantiser objects (format + rounding + fixed-LSB rule)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.errors import QuantizationError
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import FloatQuantizer, Quantizer, make_quantizer
from repro.quantization.rounding import round_nearest, round_stochastic, round_truncate


class TestFloatQuantizer:
    def test_passthrough_with_clamp(self):
        q = FloatQuantizer()
        out = q.quantize(np.array([-0.5, 0.3, 1.5]))
        assert list(out) == [0.0, 0.3, 1.0]

    def test_delta_passthrough(self):
        q = FloatQuantizer()
        delta = np.array([0.001, -0.0001])
        assert np.array_equal(q.quantize_delta(delta), delta)

    def test_no_fixed_lsb(self):
        q = FloatQuantizer()
        assert not q.uses_fixed_lsb
        with pytest.raises(QuantizationError):
            q.lsb_delta()


class TestFixedPointQuantizer:
    def test_fixed_lsb_threshold_at_8_bits(self):
        assert Quantizer(parse_qformat("Q0.2"), RoundingMode.NEAREST).uses_fixed_lsb
        assert Quantizer(parse_qformat("Q1.7"), RoundingMode.NEAREST).uses_fixed_lsb
        assert not Quantizer(parse_qformat("Q1.15"), RoundingMode.NEAREST).uses_fixed_lsb

    def test_g_max_capped_at_paper_value(self):
        # Q1.7 can represent ~1.99 but Table I fixes G_max = 1.
        q = Quantizer(parse_qformat("Q1.7"), RoundingMode.NEAREST)
        assert q.g_max == 1.0
        # Narrow formats stop below 1.
        q2 = Quantizer(parse_qformat("Q0.2"), RoundingMode.NEAREST)
        assert q2.g_max == 0.75

    def test_quantize_snaps_and_clamps(self):
        q = Quantizer(parse_qformat("Q0.2"), RoundingMode.NEAREST)
        out = q.quantize(np.array([0.3, 0.9, -0.2]))
        assert list(out) == [0.25, 0.75, 0.0]

    def test_fixed_lsb_delta_sign_and_magnitude(self):
        q = Quantizer(parse_qformat("Q0.4"), RoundingMode.NEAREST)
        delta = np.array([0.003, -0.009, 0.5])
        out = q.quantize_delta(delta)
        assert np.allclose(out, [1 / 16, -1 / 16, 1 / 16])

    def test_wide_format_delta_rounds(self):
        q = Quantizer(parse_qformat("Q1.15"), RoundingMode.NEAREST)
        res = 2.0**-15
        out = q.quantize_delta(np.array([0.4 * res, 0.6 * res]))
        assert np.allclose(out, [0.0, res])

    @pytest.mark.parametrize("mode", list(RoundingMode))
    @pytest.mark.parametrize("zeros", [False, True], ids=["dense", "sparse"])
    def test_delta_equals_rounding_the_whole_array(self, mode, zeros):
        """Rounding only the nonzero entries gives what rounding every entry
        gives (a zero rounds to zero); under stochastic rounding the changed
        entries take the whole array's draws in C order, and the generator
        advances by exactly ``count_nonzero(delta)`` draws."""
        q = Quantizer(parse_qformat("Q1.15"), mode)
        res = q.fmt.resolution
        delta = np.random.default_rng(4).uniform(-3 * res, 3 * res, size=(40, 7))
        if zeros:
            delta[::3] = 0.0
            delta[:, 2] = 0.0
        rng = np.random.default_rng(9)
        out = q.quantize_delta(delta, rng)

        changed = delta != 0.0
        if mode is RoundingMode.STOCHASTIC:
            want = np.zeros_like(delta)
            want[changed] = round_stochastic(delta[changed], res, np.random.default_rng(9))
            if not zeros:
                whole = round_stochastic(delta, res, np.random.default_rng(9))
                assert np.array_equal(want, whole)
        elif mode is RoundingMode.NEAREST:
            want = round_nearest(delta, res)
        else:
            want = round_truncate(delta, res)
        assert np.array_equal(out, want)
        advanced = np.random.default_rng(9)
        advanced.random(np.count_nonzero(delta) if mode is RoundingMode.STOCHASTIC else 0)
        assert rng.bit_generator.state == advanced.bit_generator.state

    def test_stochastic_rounding_requires_rng(self):
        q = Quantizer(parse_qformat("Q1.15"), RoundingMode.STOCHASTIC)
        with pytest.raises(QuantizationError):
            q.quantize(np.array([0.5]))

    def test_describe_mentions_format(self):
        q = Quantizer(parse_qformat("Q1.7"), RoundingMode.TRUNCATE)
        assert "Q1.7" in q.describe()
        assert "truncate" in q.describe()


class TestFactory:
    def test_float_config(self):
        assert isinstance(make_quantizer(QuantizationConfig()), FloatQuantizer)

    def test_fixed_config(self):
        q = make_quantizer(QuantizationConfig(fmt="Q0.2", rounding=RoundingMode.TRUNCATE))
        assert isinstance(q, Quantizer)
        assert q.fmt.total_bits == 2


@given(
    values=st.lists(
        st.floats(min_value=-0.5, max_value=1.5, allow_nan=False), min_size=1, max_size=32
    ),
    frac_bits=st.integers(min_value=1, max_value=8),
    mode=st.sampled_from([RoundingMode.TRUNCATE, RoundingMode.NEAREST, RoundingMode.STOCHASTIC]),
)
def test_quantize_output_always_on_grid_and_in_range(values, frac_bits, mode):
    """Invariant: whatever goes in, storage stays on-grid inside [g_min, g_max]."""
    q = Quantizer(parse_qformat(f"Q0.{frac_bits}"), mode)
    rng = np.random.default_rng(7)
    out = q.quantize(np.array(values), rng)
    assert (out >= q.g_min - 1e-12).all()
    assert (out <= q.g_max + 1e-12).all()
    assert q.fmt.is_representable(out).all()
