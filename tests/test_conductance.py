"""Tests for the plastic conductance matrix, including grid invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config.parameters import RoundingMode
from repro.errors import TopologyError
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import FloatQuantizer, Quantizer
from repro.synapses.conductance import ConductanceMatrix


class TestInitialisation:
    def test_init_within_band(self, rng):
        m = ConductanceMatrix(10, 5, g_init_low=0.2, g_init_high=0.6, rng=rng)
        assert (m.g >= 0.2 - 1e-9).all() and (m.g <= 0.6 + 1e-9).all()

    def test_init_randomised(self, rng):
        m = ConductanceMatrix(20, 20, rng=rng)
        assert m.g.std() > 0.01

    def test_quantized_init_on_grid(self, rng):
        q = Quantizer(parse_qformat("Q0.2"), RoundingMode.NEAREST)
        m = ConductanceMatrix(10, 5, quantizer=q, rng=rng)
        assert q.fmt.is_representable(m.g).all()

    def test_bad_band_rejected(self, rng):
        with pytest.raises(TopologyError):
            ConductanceMatrix(4, 4, g_init_low=-0.5, g_init_high=0.2, rng=rng)

    def test_bad_shape_rejected(self, rng):
        with pytest.raises(TopologyError):
            ConductanceMatrix(0, 4, rng=rng)


class TestApplyDelta:
    def test_float_delta_accumulates(self, rng):
        m = ConductanceMatrix(2, 2, g_init_low=0.5, g_init_high=0.5, rng=rng)
        m.apply_delta(np.full((2, 2), 0.1))
        assert np.allclose(m.g, 0.6)

    def test_clamped_at_bounds(self, rng):
        m = ConductanceMatrix(2, 2, g_init_low=0.9, g_init_high=0.9, rng=rng)
        m.apply_delta(np.full((2, 2), 10.0))
        assert np.allclose(m.g, 1.0)
        m.apply_delta(np.full((2, 2), -10.0))
        assert np.allclose(m.g, 0.0)

    def test_zero_delta_is_identity_even_with_fixed_lsb(self, rng):
        q = Quantizer(parse_qformat("Q0.4"), RoundingMode.NEAREST)
        m = ConductanceMatrix(3, 3, quantizer=q, rng=rng)
        before = m.g.copy()
        m.apply_delta(np.zeros((3, 3)), rng)
        assert np.array_equal(m.g, before)

    def test_fixed_lsb_moves_exactly_one_step(self, rng):
        q = Quantizer(parse_qformat("Q0.4"), RoundingMode.NEAREST)
        m = ConductanceMatrix(2, 2, quantizer=q, g_init_low=0.5, g_init_high=0.5, rng=rng)
        before = m.g.copy()
        delta = np.array([[0.0001, -0.3], [0.0, 0.0]])
        m.apply_delta(delta, rng)
        assert m.g[0, 0] == pytest.approx(before[0, 0] + 1 / 16)
        assert m.g[0, 1] == pytest.approx(before[0, 1] - 1 / 16)
        assert m.g[1, 0] == before[1, 0]

    def test_broadcast_delta(self, rng):
        m = ConductanceMatrix(3, 2, g_init_low=0.4, g_init_high=0.4, rng=rng)
        m.apply_delta(np.array([0.1, -0.1]))  # per-column broadcast
        assert np.allclose(m.g[:, 0], 0.5)
        assert np.allclose(m.g[:, 1], 0.3)

    def test_incompatible_delta_rejected(self, rng):
        m = ConductanceMatrix(3, 2, rng=rng)
        with pytest.raises(TopologyError):
            m.apply_delta(np.zeros((2, 3)))


class TestUtilities:
    def test_per_neuron_maps_shape(self, rng):
        m = ConductanceMatrix(16, 3, rng=rng)
        maps = m.per_neuron_maps()
        assert maps.shape == (3, 4, 4)
        assert np.array_equal(maps[1], m.g[:, 1].reshape(4, 4))

    def test_per_neuron_maps_non_square_rejected(self, rng):
        m = ConductanceMatrix(10, 2, rng=rng)
        with pytest.raises(TopologyError):
            m.per_neuron_maps()

    def test_normalize_columns(self, rng):
        m = ConductanceMatrix(10, 4, rng=rng)
        m.normalize_columns(3.0)
        assert np.allclose(m.g.sum(axis=0), 3.0, atol=1e-9)

    def test_normalize_invalid_target(self, rng):
        m = ConductanceMatrix(4, 4, rng=rng)
        with pytest.raises(TopologyError):
            m.normalize_columns(0.0)

    def test_set_conductances_validates_shape(self, rng):
        m = ConductanceMatrix(4, 4, rng=rng)
        with pytest.raises(TopologyError):
            m.set_conductances(np.zeros((4, 3)))

    def test_set_conductances_clamps_into_range(self, rng):
        m = ConductanceMatrix(2, 3, rng=rng)
        m.set_conductances(np.array([[-1.0, 0.5, 2.0], [0.0, 1.0, 0.25]]))
        assert np.array_equal(m.g, [[0.0, 0.5, 1.0], [0.0, 1.0, 0.25]])

    def test_set_conductances_from_own_storage_requantises_in_place(self, rng):
        q = Quantizer(parse_qformat("Q0.2"), RoundingMode.NEAREST)
        m = ConductanceMatrix(3, 3, quantizer=q, rng=rng)
        view = m.g
        view[...] = 0.3  # off the quarter grid
        m.set_conductances(m.g)
        assert m.g is view
        assert np.all(view == 0.25)

    def test_normalize_columns_leaves_silent_columns(self, rng):
        m = ConductanceMatrix(4, 3, rng=rng)
        m.set_conductances(np.array([[0.1, 0.0, 0.2]] * 4))
        m.normalize_columns(2.0)
        assert np.allclose(m.g[:, [0, 2]].sum(axis=0), 2.0)
        assert np.all(m.g[:, 1] == 0.0)

    def test_per_neuron_maps_explicit_side(self, rng):
        m = ConductanceMatrix(16, 2, rng=rng)
        assert m.per_neuron_maps(side=4).shape == (2, 4, 4)
        with pytest.raises(TopologyError):
            m.per_neuron_maps(side=3)


class TestStorage:
    """The matrix as the network's one synapse group: shape, bounds and
    in-place mutation that views handed to the kernels keep observing."""

    def test_shape_properties(self, rng):
        m = ConductanceMatrix(7, 3, rng=rng)
        assert (m.n_pre, m.n_post) == (7, 3)
        assert m.g.shape == (7, 3)
        assert m.connectivity is None

    @pytest.mark.parametrize("fmt", [None, "Q1.7", "Q0.4"])
    def test_bounds_follow_the_quantizer(self, rng, fmt):
        q = FloatQuantizer() if fmt is None else Quantizer(parse_qformat(fmt), RoundingMode.NEAREST)
        m = ConductanceMatrix(4, 4, quantizer=q, rng=rng)
        assert (m.g_min, m.g_max) == (q.g_min, q.g_max)
        assert m.g.min() >= m.g_min and m.g.max() <= m.g_max

    # Q1.7 under nearest rounding has a fixed LSB: any non-zero delta
    # moves a synapse by exactly one step of 1/128.
    @pytest.mark.parametrize("fmt, expected", [(None, 0.75), ("Q1.7", 0.5 + 1 / 128)])
    def test_apply_delta_mutates_storage_in_place(self, rng, fmt, expected):
        q = None if fmt is None else Quantizer(parse_qformat(fmt), RoundingMode.NEAREST)
        m = ConductanceMatrix(5, 4, quantizer=q, g_init_low=0.5, g_init_high=0.5, rng=rng)
        view = m.g
        m.apply_delta(np.full((5, 4), 0.25), rng)
        assert m.g is view
        assert np.all(view == expected)

    def test_default_initialisation_is_deterministic(self):
        assert np.array_equal(ConductanceMatrix(6, 5).g, ConductanceMatrix(6, 5).g)

    def test_stochastic_rounding_replays_from_the_same_stream(self):
        q = Quantizer(parse_qformat("Q1.7"), RoundingMode.STOCHASTIC)
        delta = np.random.default_rng(3).normal(0.0, 0.01, size=(6, 4))
        results = []
        for _ in range(2):
            m = ConductanceMatrix(6, 4, quantizer=q, rng=np.random.default_rng(9))
            m.apply_delta(delta, np.random.default_rng(10))
            results.append(m.g.copy())
        assert np.array_equal(results[0], results[1])
        assert q.fmt.is_representable(results[0]).all()

    def test_random_connectivity_probability_one_is_full(self, rng):
        assert ConductanceMatrix.random_connectivity(5, 4, 1.0, rng).all()


class TestApplyDeltaColumns:
    @pytest.mark.parametrize(
        "fmt, rounding",
        [(None, None), ("Q1.7", RoundingMode.NEAREST), ("Q0.4", RoundingMode.TRUNCATE)],
    )
    def test_matches_full_matrix_delta(self, fmt, rounding):
        q = None if fmt is None else Quantizer(parse_qformat(fmt), rounding)
        cols = np.array([0, 3])
        delta_cols = np.random.default_rng(4).normal(0.0, 0.2, size=(6, 2))
        full = np.zeros((6, 5))
        full[:, cols] = delta_cols
        by_columns = ConductanceMatrix(6, 5, quantizer=q, rng=np.random.default_rng(1))
        by_matrix = ConductanceMatrix(6, 5, quantizer=q, rng=np.random.default_rng(1))
        by_columns.apply_delta_columns(cols, delta_cols)
        by_matrix.apply_delta(full)
        assert np.array_equal(by_columns.g, by_matrix.g)

    def test_shape_checked(self, rng):
        m = ConductanceMatrix(6, 5, rng=rng)
        with pytest.raises(TopologyError):
            m.apply_delta_columns(np.array([1, 2]), np.zeros((6, 3)))

    def test_absent_synapses_stay_zero(self, rng):
        mask = np.ones((4, 3), dtype=bool)
        mask[1, 2] = False
        m = ConductanceMatrix(4, 3, rng=rng, connectivity=mask)
        m.apply_delta_columns(np.array([2]), np.full((4, 1), 0.3))
        assert m.g[1, 2] == 0.0
        assert np.all(m.g[mask[:, 2], 2] > 0.0)


@settings(max_examples=25)
@given(
    frac_bits=st.integers(min_value=2, max_value=7),
    deltas=st.lists(
        st.floats(min_value=-0.3, max_value=0.3, allow_nan=False), min_size=1, max_size=8
    ),
)
def test_invariant_storage_always_on_grid(frac_bits, deltas):
    """After any sequence of updates, fixed-point storage stays on-grid."""
    q = Quantizer(parse_qformat(f"Q0.{frac_bits}"), RoundingMode.STOCHASTIC)
    rng = np.random.default_rng(0)
    m = ConductanceMatrix(4, 4, quantizer=q, rng=rng)
    for d in deltas:
        m.apply_delta(np.full((4, 4), d), rng)
        assert q.fmt.is_representable(m.g).all()
        assert (m.g >= q.g_min).all() and (m.g <= q.g_max + 1e-12).all()


@settings(max_examples=25)
@given(
    deltas=st.lists(
        st.floats(min_value=-0.5, max_value=0.5, allow_nan=False), min_size=1, max_size=10
    )
)
def test_invariant_float_storage_always_in_range(deltas):
    rng = np.random.default_rng(0)
    m = ConductanceMatrix(3, 3, quantizer=FloatQuantizer(), rng=rng)
    for d in deltas:
        m.apply_delta(np.full((3, 3), d), rng)
        assert (m.g >= 0.0).all() and (m.g <= 1.0).all()
