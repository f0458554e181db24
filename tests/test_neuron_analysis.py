"""Tests for f-I analysis (Fig. 1a)."""

import numpy as np
import pytest

from repro.config.parameters import AdaptiveThresholdParameters
from repro.errors import SimulationError
from repro.neurons.adaptive_lif import AdaptiveLIFPopulation
from repro.neurons.analysis import fi_curve, spiking_frequency
from repro.neurons.lif import LIFPopulation


class TestSpikingFrequency:
    def test_zero_below_rheobase(self):
        pop = LIFPopulation(1)
        i_rh = pop.params.rheobase_current()
        assert spiking_frequency(pop, 0.8 * i_rh, duration_ms=500.0) == 0.0

    def test_positive_above_rheobase(self):
        pop = LIFPopulation(1)
        i_rh = pop.params.rheobase_current()
        assert spiking_frequency(pop, 2.0 * i_rh, duration_ms=500.0) > 0.0

    def test_population_reset_afterwards(self):
        pop = LIFPopulation(4)
        spiking_frequency(pop, 10.0, duration_ms=300.0)
        assert np.allclose(pop.v, pop.params.v_init)

    def test_duration_must_exceed_settle(self):
        pop = LIFPopulation(1)
        with pytest.raises(SimulationError):
            spiking_frequency(pop, 5.0, duration_ms=100.0, settle_ms=200.0)

    def test_adaptive_population_without_adaptation_measures_the_lif_rate(self):
        adaptive = AdaptiveLIFPopulation(1, adaptation=AdaptiveThresholdParameters(enabled=False))
        assert spiking_frequency(adaptive, 10.0, duration_ms=500.0) == spiking_frequency(
            LIFPopulation(1), 10.0, duration_ms=500.0
        )

    def test_adaptation_lowers_the_rate_and_theta_is_reset_afterwards(self):
        adaptive = AdaptiveLIFPopulation(
            1, adaptation=AdaptiveThresholdParameters(theta_plus=0.5, tau_ms=100.0)
        )
        rate = spiking_frequency(adaptive, 10.0, duration_ms=500.0)
        assert 0.0 < rate < spiking_frequency(LIFPopulation(1), 10.0, duration_ms=500.0)
        assert np.all(adaptive.theta == 0.0)


class TestFICurve:
    def test_monotone_nondecreasing(self):
        pop = LIFPopulation(1)
        i_rh = pop.params.rheobase_current()
        currents = np.linspace(0.5 * i_rh, 5 * i_rh, 6)
        _, freqs = fi_curve(pop, currents, duration_ms=800.0)
        assert np.all(np.diff(freqs) >= -1.0)  # allow tiny measurement jitter
        assert freqs[0] == 0.0
        assert freqs[-1] > 0.0

    def test_refractory_bounds_max_rate(self):
        pop = LIFPopulation(1)  # 2 ms refractory -> max 500 Hz
        _, freqs = fi_curve(pop, [1000.0], duration_ms=500.0)
        assert freqs[0] <= 500.0

    def test_empty_currents_rejected(self):
        with pytest.raises(SimulationError):
            fi_curve(LIFPopulation(1), [])
