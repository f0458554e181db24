"""The integer code-domain codec behind the qfused engine tier.

Pins the invariants :mod:`repro.quantization.codec` promises:

- ``decode(encode(g))`` is bit-identical for every on-grid conductance of
  every Table II format (dyadic exactness);
- ``code_dtype`` picks the narrowest unsigned dtype and refuses formats
  wider than 16 bits;
- ``delta_codes`` mirrors ``Quantizer.quantize_delta`` in the code domain
  for all three rounding options plus the fixed-LSB regime, and the fused
  eq.-8 kernel draws exactly one uniform per changed entry;
- ``apply_delta_codes`` saturates instead of wrapping for unsigned storage.
"""

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.errors import QuantizationError
from repro.quantization import (
    MAX_CODE_BITS,
    QCodec,
    code_dtype,
    codec_for,
)
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import Quantizer, make_quantizer

#: The Table II formats with an integer storage tier, and their dtypes.
TABLE_II_FORMATS = (
    ("Q0.2", np.uint8),
    ("Q0.4", np.uint8),
    ("Q1.7", np.uint8),
    ("Q1.15", np.uint16),
)


def _codec(fmt: str, rounding: RoundingMode = RoundingMode.NEAREST) -> QCodec:
    return QCodec.from_quantizer(Quantizer(parse_qformat(fmt), rounding))


class TestCodeDtype:
    @pytest.mark.parametrize("fmt,dtype", TABLE_II_FORMATS)
    def test_narrowest_unsigned_dtype(self, fmt, dtype):
        assert code_dtype(parse_qformat(fmt)) == np.dtype(dtype)

    def test_boundary_widths(self):
        assert code_dtype(parse_qformat("Q0.8")) == np.dtype(np.uint8)
        assert code_dtype(parse_qformat("Q1.8")) == np.dtype(np.uint16)
        assert code_dtype(parse_qformat("Q0.16")) == np.dtype(np.uint16)

    def test_wider_than_sixteen_bits_raises(self):
        with pytest.raises(QuantizationError, match="at most 16 bits"):
            code_dtype(parse_qformat("Q1.16"))


class TestRoundTrip:
    @pytest.mark.parametrize("fmt,dtype", TABLE_II_FORMATS)
    def test_every_storable_value_round_trips_bit_exactly(self, fmt, dtype):
        """decode(encode(g)) == g for the full storable grid of each format."""
        codec = _codec(fmt)
        codes = np.arange(codec.max_code + 1, dtype=codec.dtype)
        values = codec.decode(codes)
        assert values.dtype == np.float64
        back = codec.encode(values)
        assert back.dtype == np.dtype(dtype)
        assert np.array_equal(back, codes)
        assert np.array_equal(codec.decode(back), values)

    @pytest.mark.parametrize("fmt,_dtype", TABLE_II_FORMATS)
    def test_max_code_matches_quantizer_ceiling(self, fmt, _dtype):
        quantizer = Quantizer(parse_qformat(fmt), RoundingMode.NEAREST)
        codec = QCodec.from_quantizer(quantizer)
        assert codec.decode(np.array([codec.max_code]))[0] == quantizer.g_max

    def test_encode_clips_out_of_range(self):
        codec = _codec("Q1.7")
        codes = codec.encode(np.array([-0.5, 0.0, 2.0]))
        assert list(codes) == [0, 0, codec.max_code]

    def test_decode_into_preallocated(self):
        codec = _codec("Q1.7")
        out = np.empty(3, dtype=np.float64)
        codec.decode_into(np.array([0, 64, 128], dtype=np.uint8), out)
        assert list(out) == [0.0, 0.5, 1.0]


class TestDeltaCodes:
    def test_fixed_lsb_is_sign_with_no_draws(self):
        codec = _codec("Q1.7", RoundingMode.STOCHASTIC)
        assert codec.fixed_lsb
        # No RNG passed: the fixed-LSB regime must not need one.
        out = codec.delta_codes(np.array([0.4, -0.2, 0.0]))
        assert list(out) == [1.0, -1.0, 0.0]

    def test_truncate_floors_toward_minus_infinity(self):
        codec = _codec("Q1.15", RoundingMode.TRUNCATE)
        assert not codec.fixed_lsb
        res = codec.resolution
        out = codec.delta_codes(np.array([2.5 * res, -2.5 * res]))
        assert list(out) == [2.0, -3.0]

    def test_nearest_rounds_half_up(self):
        codec = _codec("Q1.15", RoundingMode.NEAREST)
        res = codec.resolution
        out = codec.delta_codes(np.array([2.5 * res, 2.4 * res, -2.5 * res]))
        assert list(out) == [3.0, 2.0, -2.0]

    def test_stochastic_lands_on_neighbouring_codes(self):
        codec = _codec("Q1.15", RoundingMode.STOCHASTIC)
        rng = np.random.default_rng(7)
        delta = np.full(2000, 2.25 * codec.resolution)
        out = codec.delta_codes(delta, rng)
        assert set(out) <= {2.0, 3.0}
        # P_up = 0.25; the mean code sits a quarter of the way up.
        assert out.mean() == pytest.approx(2.25, abs=0.06)

    def test_stochastic_draws_one_uniform_per_changed_entry(self):
        """Zero deltas must not consume draws — the fusion's whole point."""
        codec = _codec("Q1.15", RoundingMode.STOCHASTIC)
        delta = np.array([0.0, 1.5 * codec.resolution, 0.0, 0.5 * codec.resolution])
        a = codec.delta_codes(delta, np.random.default_rng(3))
        # A stream advanced by exactly two draws reproduces the two changed
        # entries when they are presented alone.
        b = codec.delta_codes(delta[[1, 3]], np.random.default_rng(3))
        assert list(a[[1, 3]]) == list(b)
        assert a[0] == a[2] == 0.0

    def test_stochastic_without_rng_names_the_stream(self):
        codec = _codec("Q1.15", RoundingMode.STOCHASTIC)
        with pytest.raises(QuantizationError, match="learning"):
            codec.delta_codes(np.array([0.3]))

    def test_stochastic_without_rng_but_no_changes_is_fine(self):
        codec = _codec("Q1.15", RoundingMode.STOCHASTIC)
        assert list(codec.delta_codes(np.zeros(4))) == [0.0, 0.0, 0.0, 0.0]


class TestApplyDeltaCodes:
    def _codes(self, dtype):
        return np.array([[10, 10], [0, 0], [120, 120]], dtype=dtype)

    def test_unsigned_storage_saturates_instead_of_wrapping(self):
        codec = _codec("Q1.7")
        codes = self._codes(np.uint8)
        cols = np.array([0, 1])
        delta = np.array([[-20.0, 5.0], [-1.0, 1.0], [100.0, -100.0]])
        codec.apply_delta_codes(codes, cols, delta)
        assert codes.tolist() == [[0, 15], [0, 1], [128, 20]]

    def test_untouched_columns_stay_untouched(self):
        codec = _codec("Q1.7")
        codes = np.array([[1, 2, 3]], dtype=np.uint8)
        codec.apply_delta_codes(codes, np.array([1]), np.array([[4.0]]))
        assert codes.tolist() == [[1, 6, 3]]


class TestCodecFor:
    def test_fixed_point_configs_get_a_codec(self):
        quantizer = make_quantizer(
            QuantizationConfig(fmt="Q1.7", rounding=RoundingMode.STOCHASTIC)
        )
        codec = codec_for(quantizer)
        assert codec is not None
        assert codec.code_bits == 8
        assert codec.rounding is RoundingMode.STOCHASTIC

    def test_float_config_has_no_codec(self):
        assert codec_for(make_quantizer(QuantizationConfig(fmt=None))) is None

    def test_too_wide_format_has_no_codec(self):
        wide = Quantizer(parse_qformat("Q1.16"), RoundingMode.NEAREST)
        assert wide.fmt.total_bits > MAX_CODE_BITS
        assert codec_for(wide) is None
