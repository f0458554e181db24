"""Tests for the vectorised LIF population (eqs. 1-2)."""

import numpy as np
import pytest

from repro.config.parameters import LIFParameters
from repro.errors import SimulationError
from repro.neurons.lif import LIFPopulation


def drive(population, current, steps, dt=1.0):
    spikes = np.zeros(population.n, dtype=int)
    for _ in range(steps):
        spikes += population.step(np.full(population.n, current), dt)
    return spikes


class TestDynamics:
    def test_relaxes_to_rest_without_input(self):
        pop = LIFPopulation(4)
        for _ in range(2000):
            pop.step(np.zeros(4), 1.0)
        assert np.allclose(pop.v, pop.params.rest_potential, atol=0.1)

    def test_subthreshold_current_never_spikes(self):
        pop = LIFPopulation(4)
        i_rh = pop.params.rheobase_current()
        assert drive(pop, 0.9 * i_rh, 3000).sum() == 0

    def test_suprathreshold_current_spikes(self):
        pop = LIFPopulation(4)
        i_rh = pop.params.rheobase_current()
        assert (drive(pop, 2.0 * i_rh, 1000) > 0).all()

    def test_higher_current_spikes_faster(self):
        pop = LIFPopulation(1)
        i_rh = pop.params.rheobase_current()
        low = drive(pop, 1.5 * i_rh, 2000)[0]
        pop.reset_state()
        high = drive(pop, 4.0 * i_rh, 2000)[0]
        assert high > low

    def test_reset_after_spike(self):
        pop = LIFPopulation(1, LIFParameters(refractory_ms=0.0))
        i = 5.0 * pop.params.rheobase_current()
        spiked = False
        for _ in range(500):
            if pop.step(np.array([i]), 1.0)[0]:
                spiked = True
                assert pop.v[0] == pop.params.v_reset
                break
        assert spiked

    def test_refractory_blocks_spiking(self):
        params = LIFParameters(refractory_ms=10.0)
        pop = LIFPopulation(1, params)
        i = np.array([50.0])
        times = []
        for t in range(300):
            if pop.step(i, 1.0)[0]:
                times.append(t)
        assert len(times) >= 2
        assert min(np.diff(times)) >= 10


class TestInhibition:
    def test_hard_inhibition_silences(self):
        pop = LIFPopulation(2, inhibition_strength=0.0)
        pop.inhibit(np.array([True, False]), 50.0)
        counts = drive(pop, 30.0, 40)
        assert counts[0] == 0
        assert counts[1] > 0

    def test_subtractive_inhibition_reduces_but_strong_drive_wins(self):
        pop = LIFPopulation(2, inhibition_strength=5.0)
        pop.inhibit(np.array([True, True]), 1000.0)
        # Drive far above inhibition still fires; drive near rheobase does not.
        spikes = np.zeros(2, dtype=int)
        for _ in range(500):
            spikes += pop.step(np.array([60.0, pop.params.rheobase_current() * 1.2]), 1.0)
        assert spikes[0] > 0
        assert spikes[1] == 0

    def test_inhibition_expires(self):
        pop = LIFPopulation(1, inhibition_strength=0.0)
        pop.inhibit(np.array([True]), 10.0)
        assert drive(pop, 30.0, 10).sum() == 0
        assert drive(pop, 30.0, 100).sum() > 0

    def test_inhibit_extends_not_shortens(self):
        pop = LIFPopulation(1, inhibition_strength=0.0)
        pop.inhibit(np.array([True]), 100.0)
        pop.inhibit(np.array([True]), 5.0)
        pop.step(np.array([0.0]), 1.0)
        assert pop.inhibited[0]

    def test_negative_duration_rejected(self):
        pop = LIFPopulation(1)
        with pytest.raises(SimulationError):
            pop.inhibit(np.array([True]), -1.0)

    def test_bad_mask_shape_rejected(self):
        pop = LIFPopulation(3)
        with pytest.raises(SimulationError):
            pop.inhibit(np.array([True]), 1.0)


class TestInterface:
    def test_bad_current_shape_rejected(self):
        pop = LIFPopulation(3)
        with pytest.raises(SimulationError):
            pop.step(np.zeros(2), 1.0)

    def test_scalar_current_broadcasts(self):
        pop = LIFPopulation(3)
        spikes = pop.step(np.float64(0.0), 1.0)
        assert spikes.shape == (3,)

    def test_reset_state_restores_init(self):
        pop = LIFPopulation(2)
        drive(pop, 50.0, 50)
        pop.reset_state()
        assert np.allclose(pop.v, pop.params.v_init)
        assert not pop.inhibited.any()

    def test_zero_size_rejected(self):
        with pytest.raises(SimulationError):
            LIFPopulation(0)

    def test_effective_threshold_is_the_parameter(self):
        params = LIFParameters(v_threshold=-55.0)
        assert LIFPopulation(3, params).effective_threshold == -55.0
