"""Tests for the event-driven LIF engine (the analytic oracle)."""


import numpy as np
import pytest

from repro.config.parameters import LIFParameters
from repro.engine.event_driven import CurrentStep, EventDrivenLIF
from repro.errors import SimulationError
from repro.neurons.lif import LIFPopulation


class TestClosedForm:
    def test_no_input_no_spikes(self):
        engine = EventDrivenLIF()
        assert engine.run([], duration_ms=1000.0) == []

    def test_subthreshold_constant_current(self):
        engine = EventDrivenLIF()
        rheobase = engine.params.rheobase_current()
        spikes = engine.run([CurrentStep(0.0, 0.9 * rheobase)], duration_ms=2000.0)
        assert spikes == []

    def test_suprathreshold_regular_spiking(self):
        engine = EventDrivenLIF()
        rheobase = engine.params.rheobase_current()
        spikes = engine.run([CurrentStep(0.0, 3.0 * rheobase)], duration_ms=1000.0)
        assert len(spikes) > 5
        gaps = np.diff(spikes)
        # Constant drive -> perfectly periodic after the first interval.
        assert np.allclose(gaps[1:], gaps[1], atol=1e-9)

    def test_analytic_rate_matches_run(self):
        engine = EventDrivenLIF()
        current = 3.0 * engine.params.rheobase_current()
        rate = engine.steady_state_rate_hz(current)
        spikes = engine.run([CurrentStep(0.0, current)], duration_ms=5000.0)
        measured = len(spikes) / 5.0
        assert measured == pytest.approx(rate, rel=0.02)

    def test_refractory_enforced_exactly(self):
        params = LIFParameters(refractory_ms=10.0)
        engine = EventDrivenLIF(params)
        spikes = engine.run([CurrentStep(0.0, 100.0)], duration_ms=500.0)
        assert min(np.diff(spikes)) >= 10.0

    def test_unsorted_schedule_rejected(self):
        engine = EventDrivenLIF()
        with pytest.raises(SimulationError):
            engine.run([CurrentStep(10.0, 1.0), CurrentStep(5.0, 2.0)], 100.0)

    def test_non_leaky_rejected(self):
        # A positive b is rejected at parameter level; the engine's own
        # guard catches it if constructed around validation.
        params = LIFParameters()
        object.__setattr__(params, "b", 0.1)
        with pytest.raises(SimulationError):
            EventDrivenLIF(params)


class TestOracleAgainstClockEngine:
    def test_clock_engine_converges_to_exact_spike_times(self):
        """As dt -> 0 the Euler engine converges to the analytic solution."""
        engine = EventDrivenLIF(LIFParameters(refractory_ms=2.0))
        current = 3.0 * engine.params.rheobase_current()
        exact = engine.run([CurrentStep(0.0, current)], duration_ms=400.0)

        errors = []
        for dt in (1.0, 0.25, 0.05):
            pop = LIFPopulation(1, engine.params)
            spikes = []
            n_steps = int(400.0 / dt)
            for i in range(n_steps):
                if pop.step(np.array([current]), dt)[0]:
                    spikes.append((i + 1) * dt)
            # Spike counts converge (coarse Euler may gain a couple) and the
            # timing error shrinks with dt.
            assert abs(len(spikes) - len(exact)) <= 3
            n = min(len(spikes), len(exact))
            errors.append(np.abs(np.array(spikes[:n]) - np.array(exact[:n])).max())
        assert errors[2] < errors[0]

    def test_first_spike_time_formula(self):
        """Cross-check the crossing-time formula against dense Euler."""
        engine = EventDrivenLIF()
        current = 2.0 * engine.params.rheobase_current()
        exact = engine.run([CurrentStep(0.0, current)], duration_ms=300.0)[0]
        pop = LIFPopulation(1, engine.params)
        dt = 0.01
        t = 0.0
        while t < 300.0:
            t += dt
            if pop.step(np.array([current]), dt)[0]:
                break
        assert t == pytest.approx(exact, abs=0.05)


class TestPulseSchedules:
    def test_spikes_from_pulse_train(self):
        engine = EventDrivenLIF()
        rheobase = engine.params.rheobase_current()
        # 1 ms pulses at 3x rheobase every 2 ms hold the mean drive above
        # rheobase for much longer than the membrane time constant.
        schedule = []
        for t in np.arange(0.0, 200.0, 2.0):
            schedule += [CurrentStep(t, 3.0 * rheobase), CurrentStep(t + 1.0, 0.0)]
        spikes = engine.run(schedule, duration_ms=250.0)
        assert len(spikes) > 0
