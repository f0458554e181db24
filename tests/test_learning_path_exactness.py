"""Exactness of the learning path's per-presentation shortcuts.

Each shortcut replaces a formulation that did more work for the same
result, and each test here pins it against that formulation, bit for bit:

- ``sparsify`` builds its event lists from one flat ``np.flatnonzero``
  pass, against the 2-D ``np.nonzero`` + ``searchsorted`` + ``np.unique``
  formulation (a hypothesis property);
- ``PoissonEncoder.generate_train`` draws its uniforms in fixed step
  blocks into one buffer, against one ``(n_steps, n_pixels)`` draw,
  including the generator's end state;
- ``ConductanceMatrix.normalize_columns`` rescales float storage in place,
  against ``np.clip(g * scale, 0, 1)``;
- at <= 8 bits the code-domain STDP columns apply the LTP mask minus the
  LTD mask as a saturating +-1 code step, against eqs. 4-5 rounded by
  ``QCodec.delta_codes``, with the magnitude path kept where eq. 4
  underflows;
- the integer kernel's entry encode runs through a row-block scratch,
  against ``QCodec.encode``, for off-grid, out-of-range and NaN values.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.backend import asnumpy
from repro.config.parameters import (
    DeterministicSTDPParameters,
    EncodingParameters,
    RoundingMode,
    StochasticSTDPParameters,
)
from repro.config.presets import get_preset
from repro.encoding.events import sparsify
from repro.encoding.poisson import DRAW_BLOCK_STEPS, PoissonEncoder
from repro.engine.plasticity import (
    quantized_deterministic_columns,
    quantized_stochastic_columns,
    unit_steps_exact,
)
from repro.engine.qevent import ENCODE_BLOCK_ROWS, QEventPresentation
from repro.learning.deterministic import DeterministicSTDP
from repro.learning.stochastic import StochasticSTDP
from repro.learning.updates import (
    depression_magnitude,
    depression_probability,
    potentiation_magnitude,
    potentiation_probability,
)
from repro.network.wta import WTANetwork
from repro.quantization.codec import QCodec
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import FloatQuantizer, Quantizer
from repro.synapses.conductance import ConductanceMatrix
from repro.synapses.traces import SpikeTimers

# ----------------------------------------------------------------------
# sparsify
# ----------------------------------------------------------------------


def _sparsify_oracle(raster):
    n_steps = raster.shape[0]
    step_idx, channels = np.nonzero(raster)
    offsets = np.searchsorted(step_idx, np.arange(n_steps + 1))
    return channels, offsets, np.unique(step_idx)


@settings(max_examples=150, deadline=None)
@given(
    n_steps=st.integers(min_value=0, max_value=60),
    n_channels=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    transposed=st.booleans(),
)
@example(n_steps=0, n_channels=5, density=0.5, seed=0, transposed=False)
@example(n_steps=17, n_channels=1, density=0.3, seed=1, transposed=False)
@example(n_steps=9, n_channels=7, density=0.0, seed=2, transposed=False)
@example(n_steps=9, n_channels=7, density=1.0, seed=3, transposed=True)
def test_sparsify_matches_nonzero_unique(n_steps, n_channels, density, seed, transposed):
    rng = np.random.default_rng(seed)
    if transposed:
        # A non-contiguous view: the flat pass must still read row-major.
        raster = (rng.random((n_channels, n_steps)) < density).T
    else:
        raster = rng.random((n_steps, n_channels)) < density
    channels, offsets, event_steps = _sparsify_oracle(raster)
    sparse = sparsify(raster)
    assert (sparse.n_steps, sparse.n_channels) == (n_steps, n_channels)
    for got, want in (
        (sparse.channels, channels),
        (sparse.offsets, offsets),
        (sparse.event_steps, event_steps),
    ):
        assert got.dtype == np.intp
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# generate_train
# ----------------------------------------------------------------------


class TestBlockDraw:
    @pytest.mark.parametrize(
        "n_steps",
        [0, 1, DRAW_BLOCK_STEPS - 1, DRAW_BLOCK_STEPS, DRAW_BLOCK_STEPS + 1, 500],
    )
    def test_equals_one_full_draw_and_generator_end_state(self, n_steps):
        encoder = PoissonEncoder(784, EncodingParameters())
        image = np.random.default_rng(0).integers(0, 256, size=(28, 28))
        encoder.set_image(image)
        p = encoder.frequencies_hz * (1.0 / 1000.0)
        rng_block, rng_full = np.random.default_rng(7), np.random.default_rng(7)
        # Two calls in a row: the second continues the same stream.
        for _ in range(2):
            got = encoder.generate_train(n_steps, 1.0, rng_block)
            want = rng_full.random((n_steps, 784)) < p
            assert got.dtype == np.bool_ and got.shape == (n_steps, 784)
            assert np.array_equal(got, want)
            assert rng_block.bit_generator.state == rng_full.bit_generator.state


# ----------------------------------------------------------------------
# normalize_columns (float storage)
# ----------------------------------------------------------------------


class TestInPlaceNormalisation:
    @staticmethod
    def _matrix(mask=None):
        m = ConductanceMatrix(
            50, 12, FloatQuantizer(), rng=np.random.default_rng(5), connectivity=mask
        )
        m.g[:, 3] = 0.0  # a zero column keeps scale 1
        return m

    @staticmethod
    def _expected(g, target):
        sums = g.sum(axis=0)
        scale = np.where(sums > 0.0, target / np.maximum(sums, 1e-12), 1.0)
        return np.clip(g * scale, 0.0, 1.0)

    @pytest.mark.parametrize("target", [5.0, 40.0])  # 40: many products clip at 1
    def test_bit_identical_to_clipped_product(self, target):
        m = self._matrix()
        expected = self._expected(m.g.copy(), target)
        m.normalize_columns(target)
        assert np.array_equal(m.g, expected)
        assert np.array_equal(m.g.view(np.uint64), expected.view(np.uint64))

    def test_views_taken_before_see_the_result(self):
        m = self._matrix()
        whole, part = m.g, m.g[:, 2:5]
        expected = self._expected(m.g.copy(), 7.0)
        m.normalize_columns(7.0)
        assert m.g is whole
        assert np.array_equal(whole, expected)
        assert np.array_equal(part, expected[:, 2:5])

    def test_masked_out_synapses_stay_zero(self):
        mask = np.random.default_rng(9).random((50, 12)) < 0.7
        m = self._matrix(mask)
        expected = self._expected(m.g.copy(), 30.0)
        m.normalize_columns(30.0)
        assert np.all(m.g[~mask] == 0.0)
        assert np.array_equal(m.g[mask], expected[mask])


# ----------------------------------------------------------------------
# <= 8-bit code-domain STDP: the +-1 mask against the magnitude path
# ----------------------------------------------------------------------


def _codec(fmt):
    return QCodec.from_quantizer(Quantizer(parse_qformat(fmt), RoundingMode.STOCHASTIC))


def _magnitude_update(rule, codes, codec, pot, dep, cols, rng_rounding, conn_mask):
    """The magnitude path: eqs. 4-5, ``delta_codes``, ``apply_delta_codes``."""
    magnitudes = getattr(rule, "magnitudes", None) or rule.params
    g_cols = codec.decode(codes[:, cols])
    delta = np.where(pot, potentiation_magnitude(g_cols, magnitudes), 0.0) - np.where(
        dep, depression_magnitude(g_cols, magnitudes), 0.0
    )
    increments = np.where(delta != 0.0, codec.delta_codes(delta, rng_rounding), 0.0)
    mask_cols = None if conn_mask is None else conn_mask[:, cols]
    codec.apply_delta_codes(codes, cols, increments, mask_cols)


def _unit_update(rule, codes, codec, pot, dep, cols, rng_rounding, conn_mask):
    """A plain +-1 code step, whatever eqs. 4-5 say (right only if they are positive)."""
    stepped = np.clip(codes[:, cols].astype(np.int64) + pot - dep, 0, codec.max_code)
    if conn_mask is not None:
        stepped = np.where(conn_mask[:, cols], stepped, 0)
    codes[:, cols] = stepped


def _stochastic_oracle(
    rule, codes, codec, timers, post, t_ms, rng, rng_rounding, conn_mask,
    update=_magnitude_update,
):
    elapsed = timers.elapsed_pre(t_ms)
    cols = np.flatnonzero(post)
    draws = rng.random(size=(elapsed.shape[0], cols.size))
    pot = draws < potentiation_probability(elapsed, rule.params)[:, None]
    dep_draws = rng.random(size=pot.shape)
    dep = ~pot & (dep_draws < depression_probability(elapsed, rule.params)[:, None])
    if pot.any() or dep.any():
        update(rule, codes, codec, pot, dep, cols, rng_rounding, conn_mask)


def _deterministic_oracle(
    rule, codes, codec, timers, post, t_ms, rng_rounding, conn_mask,
    update=_magnitude_update,
):
    recent = (timers.elapsed_pre(t_ms) <= rule.params.window_ms)[:, None]
    cols = np.flatnonzero(post)
    update(rule, codes, codec, recent, ~recent, cols, rng_rounding, conn_mask)


class _DeltaCodesSpy:
    """Counts ``QCodec.delta_codes`` calls (the magnitude path's rounding)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = QCodec.delta_codes

        def spy(codec, *args, **kwargs):
            self.calls += 1
            return original(codec, *args, **kwargs)

        monkeypatch.setattr(QCodec, "delta_codes", spy)


def _run_updates(rule, codec, storage, masked, stochastic, fn, steps=25):
    """*steps* post-spike updates from pinned seeds: final codes, stream states."""
    n_pre, n_post = 60, 9
    setup = np.random.default_rng(11)
    dtype = codec.dtype if storage == "int" else np.float64
    # Start with plenty of codes at both bounds so saturation is exercised.
    codes = setup.choice([0, codec.max_code, codec.max_code // 2], size=(n_pre, n_post))
    codes = codes.astype(dtype)
    conn_mask = setup.random((n_pre, n_post)) < 0.8 if masked else None
    if masked:
        codes[~conn_mask] = 0
    timers = SpikeTimers(n_pre, n_post)
    rng, rng_rounding = np.random.default_rng(21), np.random.default_rng(22)
    t_ms = 0.0
    for _ in range(steps):
        t_ms += 7.0
        timers.record_pre(setup.random(n_pre) < 0.4, t_ms - setup.integers(0, 90))
        post = setup.random(n_post) < 0.3
        post[setup.integers(n_post)] = True
        if stochastic:
            fn(rule, codes, codec, timers, post, t_ms, rng, rng_rounding, conn_mask)
        else:
            fn(rule, codes, codec, timers, post, t_ms, rng_rounding, conn_mask)
    return codes, rng.bit_generator.state, rng_rounding.bit_generator.state


_STOCHASTIC = StochasticSTDP(StochasticSTDPParameters(gamma_pot=0.5, gamma_dep=0.5))
_DETERMINISTIC = DeterministicSTDP(DeterministicSTDPParameters(window_ms=40.0))


class TestUnitStepMask:
    @pytest.mark.parametrize("fmt", ["Q1.7", "Q0.4", "Q0.2"])
    @pytest.mark.parametrize("stochastic", [True, False], ids=["stochastic", "deterministic"])
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    @pytest.mark.parametrize("storage", ["int", "float"])
    def test_equals_the_magnitude_path(self, monkeypatch, fmt, stochastic, masked, storage):
        codec = _codec(fmt)
        rule = _STOCHASTIC if stochastic else _DETERMINISTIC
        oracle = _stochastic_oracle if stochastic else _deterministic_oracle
        kernel = quantized_stochastic_columns if stochastic else quantized_deterministic_columns
        magnitudes = rule.magnitudes if stochastic else rule.params
        assert unit_steps_exact(magnitudes, codec)

        want = _run_updates(rule, codec, storage, masked, stochastic, oracle)
        spy = _DeltaCodesSpy(monkeypatch)
        got = _run_updates(rule, codec, storage, masked, stochastic, kernel)
        assert spy.calls == 0, "the <= 8-bit update took the magnitude path"
        assert got[0].dtype == want[0].dtype
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]  # learning and rounding streams

    @pytest.mark.parametrize("stochastic", [True, False], ids=["stochastic", "deterministic"])
    def test_underflowing_eq4_takes_the_fallback(self, monkeypatch, stochastic):
        codec = _codec("Q1.7")
        # exp(-800 * G) underflows to 0 above G ~ 0.93: those synapses must
        # not move on LTP, which a +-1 step would get wrong.
        magnitudes = DeterministicSTDPParameters(beta_p=800.0, window_ms=40.0)
        assert potentiation_magnitude(np.array([1.0]), magnitudes)[0] == 0.0
        assert not unit_steps_exact(magnitudes, codec)
        if stochastic:
            rule = StochasticSTDP(
                StochasticSTDPParameters(gamma_pot=0.9, gamma_dep=0.1), magnitudes
            )
            oracle, kernel = _stochastic_oracle, quantized_stochastic_columns
        else:
            rule = DeterministicSTDP(magnitudes)
            oracle, kernel = _deterministic_oracle, quantized_deterministic_columns

        want = _run_updates(rule, codec, "int", False, stochastic, oracle)
        spy = _DeltaCodesSpy(monkeypatch)
        got = _run_updates(rule, codec, "int", False, stochastic, kernel)
        assert spy.calls > 0, "the underflowing rule did not take the fallback"
        assert np.array_equal(got[0], want[0])
        assert got[1:] == want[1:]
        # The fallback matters: +-1 steps would have moved synapses that
        # eq. 4 leaves in place.
        unit = _run_updates(
            rule, codec, "int", False, stochastic, partial(oracle, update=_unit_update)
        )
        assert not np.array_equal(unit[0], want[0])

    def test_wider_formats_keep_the_magnitude_path(self):
        assert not unit_steps_exact(DeterministicSTDPParameters(), _codec("Q1.15"))


# ----------------------------------------------------------------------
# the integer kernel's entry encode
# ----------------------------------------------------------------------


class TestEntryEncode:
    @staticmethod
    def _kernel(storage):
        # 150 input rows: three row blocks of ENCODE_BLOCK_ROWS.
        net = WTANetwork(get_preset("8bit", n_neurons=30, seed=0), 150)
        assert net.synapses.g.shape[0] > 2 * ENCODE_BLOCK_ROWS
        return net, QEventPresentation(net, storage=storage)

    @staticmethod
    def _values(shape, with_nan):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 129, size=shape) / 128.0  # on grid
        values[::3] += rng.uniform(-0.004, 0.004, size=values[::3].shape)  # off grid
        values[1::7] = rng.uniform(-3.0, 3.0, size=values[1::7].shape)  # out of range
        values[2, :4] = [np.inf, -np.inf, 1e300, -0.0]
        if with_nan:
            values[5, 1] = np.nan
            values[140, 7] = np.nan
        return values

    @pytest.mark.parametrize("storage", ["int", "float"])
    def test_codes_equal_qcodec_encode(self, storage):
        net, kernel = self._kernel(storage)
        values = self._values(net.synapses.g.shape, with_nan=False)
        net.synapses.g[...] = values
        kernel.run(np.zeros(150), 0.0, 0, 1.0)
        dtype = None if storage == "int" else np.float64
        want = kernel.codec.encode(values, dtype=dtype)
        assert kernel.codes.dtype == want.dtype
        assert np.array_equal(asnumpy(kernel.codes), want)

    def test_nan_gives_the_same_codes_and_cast_warning(self):
        net, kernel = self._kernel("int")
        values = self._values(net.synapses.g.shape, with_nan=True)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
            want = kernel.codec.encode(values)
        net.synapses.g[...] = values
        with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
            kernel.run(np.zeros(150), 0.0, 0, 1.0)
        assert np.array_equal(asnumpy(kernel.codes), want)

    def test_float_twin_keeps_nan(self):
        net, kernel = self._kernel("float")
        values = self._values(net.synapses.g.shape, with_nan=True)
        net.synapses.g[...] = values
        kernel.run(np.zeros(150), 0.0, 0, 1.0)
        want = kernel.codec.encode(values, dtype=np.float64)
        assert np.array_equal(asnumpy(kernel.codes), want, equal_nan=True)

    @pytest.mark.parametrize("block_rows", [1, 5, 64, 200])
    def test_encode_into_matches_encode_at_any_block_size(self, block_rows):
        codec = _codec("Q1.7")
        values = self._values((150, 30), with_nan=False)
        out = np.zeros(values.shape, dtype=codec.dtype)
        codec.encode_into(values, out, np.empty((block_rows, 30)))
        assert np.array_equal(out, codec.encode(values))
