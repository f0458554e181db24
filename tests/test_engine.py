"""Tests for RNG streams, the clock and the generic simulator loop."""

import numpy as np
import pytest

from repro.engine.clock import SimulationClock
from repro.engine.monitors import RateMonitor, SpikeMonitor, StateMonitor
from repro.engine.rng import STREAM_NAMES, RngStreams
from repro.engine.simulator import Simulator, StepResult
from repro.errors import SimulationError


class TestRngStreams:
    def test_all_streams_exist(self):
        streams = RngStreams(0)
        for name in STREAM_NAMES:
            assert isinstance(streams.get(name), np.random.Generator)

    def test_streams_independent(self):
        streams = RngStreams(0)
        a = streams.encoding.random(5)
        b = streams.learning.random(5)
        assert not np.allclose(a, b)

    def test_same_seed_same_streams(self):
        a = RngStreams(7).learning.random(10)
        b = RngStreams(7).learning.random(10)
        assert np.array_equal(a, b)

    def test_different_seed_different_streams(self):
        a = RngStreams(7).learning.random(10)
        b = RngStreams(8).learning.random(10)
        assert not np.array_equal(a, b)

    def test_consuming_one_stream_leaves_others_untouched(self):
        ref = RngStreams(3).learning.random(4)
        streams = RngStreams(3)
        streams.encoding.random(1000)  # burn the encoding stream
        assert np.array_equal(streams.learning.random(4), ref)

    def test_unknown_stream_rejected(self):
        with pytest.raises(SimulationError):
            RngStreams(0).get("nope")
        with pytest.raises(AttributeError):
            RngStreams(0).nope

    def test_non_integer_seed_rejected(self):
        with pytest.raises(SimulationError):
            RngStreams(1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError, match="non-negative, got -1"):
            RngStreams(-1)

    def test_negative_reseed_rejected(self):
        with pytest.raises(SimulationError, match="non-negative, got -1"):
            RngStreams(0).reseed(-1)

    def test_negative_seed_in_state_dict_rejected(self):
        state = RngStreams(0).state_dict()
        state["seed"] = -1
        with pytest.raises(SimulationError, match="non-negative, got -1"):
            RngStreams(0).load_state_dict(state)

    def test_state_dict_covers_every_stream(self):
        state = RngStreams(0).state_dict()
        assert sorted(state["streams"]) == sorted(STREAM_NAMES)

    def test_load_tolerates_checkpoints_predating_qrounding(self):
        """Old v2 checkpoints lack the (optional) qrounding stream: they
        must still load, with qrounding freshly reseeded from the seed."""
        streams = RngStreams(5)
        state = streams.state_dict()
        del state["streams"]["qrounding"]
        restored = RngStreams(0)
        restored.load_state_dict(state)
        assert np.array_equal(
            restored.learning.random(4), RngStreams(5).learning.random(4)
        )
        assert np.array_equal(
            restored.qrounding.random(4), RngStreams(5).qrounding.random(4)
        )

    def test_load_still_requires_the_mandatory_streams(self):
        state = RngStreams(5).state_dict()
        del state["streams"]["learning"]
        with pytest.raises(SimulationError, match="learning"):
            RngStreams(0).load_state_dict(state)


class TestClock:
    def test_advance(self):
        clock = SimulationClock(0.5)
        assert clock.t_ms == 0.0
        clock.advance()
        clock.advance()
        assert clock.t_ms == 1.0
        assert clock.step_index == 2

    def test_steps_for(self):
        clock = SimulationClock(1.0)
        assert clock.steps_for(500.0) == 500
        assert clock.steps_for(0.0) == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            SimulationClock(1.0).steps_for(-1.0)

    def test_invalid_dt_rejected(self):
        with pytest.raises(SimulationError):
            SimulationClock(0.0)

    def test_reset(self):
        clock = SimulationClock(1.0)
        clock.advance()
        clock.reset()
        assert clock.t_ms == 0.0


class _CountingModel:
    """Spikes on every 3rd step; records the times it was called with."""

    def __init__(self):
        self.calls = []

    def advance(self, t_ms, dt_ms):
        self.calls.append(t_ms)
        spikes = np.array([len(self.calls) % 3 == 0, False])
        return StepResult(t_ms=t_ms, spikes={"output": spikes})


class TestSimulator:
    def test_run_steps_advances_model(self):
        model = _CountingModel()
        sim = Simulator(model, dt_ms=2.0)
        stats = sim.run_steps(5)
        assert model.calls == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert stats.steps == 5
        assert stats.simulated_ms == 10.0

    def test_run_duration(self):
        sim = Simulator(_CountingModel(), dt_ms=1.0)
        stats = sim.run(25.0)
        assert stats.steps == 25

    def test_spike_monitor_wired(self):
        sim = Simulator(_CountingModel(), dt_ms=1.0)
        mon = sim.add_spike_monitor(SpikeMonitor("output"))
        sim.run_steps(9)
        assert mon.count == 3
        times, indices = mon.events()
        assert list(indices) == [0, 0, 0]

    def test_rate_monitor_wired(self):
        sim = Simulator(_CountingModel(), dt_ms=1.0)
        mon = sim.add_rate_monitor(RateMonitor(2, window_ms=10.0), "output")
        sim.run_steps(50)
        _, rates = mon.rates()
        assert len(rates) > 0
        assert all(r > 0 for r in rates)

    def test_callbacks_invoked(self):
        sim = Simulator(_CountingModel(), dt_ms=1.0)
        seen = []
        sim.add_callback(lambda result: seen.append(result.t_ms))
        sim.run_steps(3)
        assert seen == [0.0, 1.0, 2.0]

    def test_negative_steps_rejected(self):
        with pytest.raises(SimulationError):
            Simulator(_CountingModel()).run_steps(-1)

    def test_run_stats_rates(self):
        sim = Simulator(_CountingModel(), dt_ms=1.0)
        stats = sim.run_steps(10)
        assert stats.steps_per_second > 0
        assert stats.realtime_factor > 0


class TestMonitorsStandalone:
    def test_spike_monitor_counts_per_neuron(self):
        mon = SpikeMonitor()
        mon.record(0.0, np.array([True, False, True]))
        mon.record(1.0, np.array([True, False, False]))
        assert list(mon.counts_per_neuron(3)) == [2, 0, 1]

    def test_spike_monitor_clear(self):
        mon = SpikeMonitor()
        mon.record(0.0, np.array([True]))
        mon.clear()
        assert mon.count == 0

    def test_state_monitor_selected_indices(self):
        state = np.arange(5, dtype=float)
        mon = StateMonitor(lambda: state, indices=[0, 4])
        mon.record(0.0)
        state += 1
        mon.record(1.0)
        times, values = mon.traces()
        assert values.shape == (2, 2)
        assert list(values[1]) == [1.0, 5.0]
