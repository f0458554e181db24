"""Tests for sparse connectivity masks on the conductance matrix."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.learning.deterministic import DeterministicSTDP
from repro.synapses.conductance import ConductanceMatrix
from repro.synapses.traces import SpikeTimers


class TestMaskInvariant:
    def test_absent_synapses_start_at_zero(self, rng):
        mask = np.array([[True, False], [False, True], [True, True]])
        m = ConductanceMatrix(3, 2, rng=rng, connectivity=mask)
        assert (m.g[~mask] == 0.0).all()
        assert (m.g[mask] > 0.0).all()

    def test_absent_synapses_never_update(self, rng):
        mask = np.array([[True, False], [False, True], [True, True]])
        m = ConductanceMatrix(3, 2, rng=rng, connectivity=mask)
        m.apply_delta(np.full((3, 2), 0.3), rng)
        assert (m.g[~mask] == 0.0).all()
        m.set_conductances(np.full((3, 2), 0.9), rng)
        assert (m.g[~mask] == 0.0).all()
        m.normalize_columns(0.5, rng)
        assert (m.g[~mask] == 0.0).all()

    def test_mask_survives_stdp(self, rng):
        mask = ConductanceMatrix.random_connectivity(8, 4, 0.5, rng)
        m = ConductanceMatrix(8, 4, rng=rng, connectivity=mask)
        timers = SpikeTimers(8, 4)
        rule = DeterministicSTDP()
        timers.record_pre(np.ones(8, bool), 0.0)
        for t in range(20):
            rule.step(m, timers, np.zeros(8, bool), np.ones(4, bool), float(t), rng)
        assert (m.g[~mask] == 0.0).all()

    def test_full_connectivity_is_default(self, rng):
        m = ConductanceMatrix(4, 4, rng=rng)
        assert m.connectivity is None

    def test_wrong_mask_shape_rejected(self, rng):
        with pytest.raises(TopologyError):
            ConductanceMatrix(3, 2, rng=rng, connectivity=np.ones((2, 3), bool))


class TestRandomConnectivity:
    def test_density_matches_probability(self, rng):
        mask = ConductanceMatrix.random_connectivity(100, 100, 0.3, rng)
        assert mask.mean() == pytest.approx(0.3, abs=0.03)

    def test_probability_bounds(self, rng):
        with pytest.raises(TopologyError):
            ConductanceMatrix.random_connectivity(4, 4, 0.0, rng)
        with pytest.raises(TopologyError):
            ConductanceMatrix.random_connectivity(4, 4, 1.5, rng)
