"""Edge cases across modules that the per-module files do not cover."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.rasters import ascii_raster
from repro.config.parameters import EncodingParameters
from repro.encoding.poisson import PoissonEncoder
from repro.quantization.rounding import stochastic_round_up_probability


class TestAsciiRasterSubsampling:
    def test_large_raster_bounded(self):
        raster = np.zeros((1000, 300), dtype=bool)
        raster[500, 150] = True
        art = ascii_raster(raster, max_channels=40, max_steps=120)
        lines = art.split("\n")
        assert len(lines) <= 43
        assert all(len(line) <= 125 for line in lines)
        assert "|" in art  # the lone spike survives block-OR subsampling

    def test_tiny_raster_unchanged(self):
        raster = np.zeros((5, 3), dtype=bool)
        raster[1, 2] = True
        art = ascii_raster(raster)
        assert art.split("\n")[2][1] == "|"


class TestEncoderEdges:
    def test_poisson_probability_capped_effect(self, rng):
        """Even at f*dt near 1 the encoder emits at most one spike per step."""
        enc = PoissonEncoder(4, EncodingParameters(f_min_hz=0.0, f_max_hz=900.0))
        enc.set_image(np.full((2, 2), 255, dtype=np.uint8))
        spikes = enc.step(1.0, rng)
        assert spikes.dtype == bool
        assert spikes.shape == (4,)

    def test_all_black_image_spikes_at_f_min(self, rng):
        enc = PoissonEncoder(100, EncodingParameters(f_min_hz=10.0, f_max_hz=100.0))
        raster = enc.generate(np.zeros((10, 10), dtype=np.uint8), 5000.0, 1.0, rng)
        rate = raster.sum() / 100 / 5.0
        assert rate == pytest.approx(10.0, rel=0.2)


@given(
    value=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    frac_bits=st.integers(min_value=1, max_value=12),
)
def test_round_up_probability_is_a_probability(value, frac_bits):
    p = float(stochastic_round_up_probability(np.array([value]), 2.0**-frac_bits)[0])
    assert 0.0 <= p < 1.0
